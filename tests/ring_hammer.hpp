// Wrap-under-snapshot hammer shared by the obs ring tests: one writer
// thread appends self-describing records to a tiny ring (so it wraps on
// nearly every append) while the calling thread takes live snapshots.
// Each snapshot's own checks (every record whole, per-thread order
// strictly increasing) run in `snapshot`, which returns returned + dropped
// for its cut; the hammer checks that count against the writer's progress.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

namespace hsd::tests {

/// Runs `write(i)` for i = 0, 1, ... on a writer thread while calling
/// `snapshot()` `snapshots` times on this one.
template <class Write, class Snapshot>
void hammerRingUnderSnapshots(Write&& write, Snapshot&& snapshot,
                              int snapshots = 300) {
  // Two counts bracket the ring's own: `done` is stored after an append
  // lands, `begun` before it starts, so any cut the snapshot takes lies
  // between `done` read before it and `begun` read after it.
  std::atomic<std::uint64_t> begun{0};
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0;
         i < 1000 || !stop.load(std::memory_order_relaxed); ++i) {
      begun.store(i + 1, std::memory_order_release);
      write(i);
      done.store(i + 1, std::memory_order_release);
    }
  });
  while (done.load(std::memory_order_acquire) == 0) std::this_thread::yield();
  for (int s = 0; s < snapshots; ++s) {
    const std::uint64_t lo = done.load(std::memory_order_acquire);
    const std::uint64_t seen = snapshot();
    const std::uint64_t hi = begun.load(std::memory_order_acquire);
    EXPECT_LE(lo, seen);
    EXPECT_LE(seen, hi);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace hsd::tests
