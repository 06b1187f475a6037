// Per-thread recording state shared by the obs recorders (TraceRecorder,
// LogRecorder, ModelStatsRecorder). Two pieces:
//
//  - ThreadRegistry<State> hands every recording thread its own State,
//    built on the thread's first call and kept for the registry's
//    lifetime. A typed thread_local slot caches the last (registry,
//    state) pair, so the steady-state lookup is one compare; only a
//    thread's first call into a registry takes the mutex. The slot is
//    keyed by an owner id unique among registries of that State type,
//    never by address, so a destroyed registry's state can't be revived
//    by a new one at the same address.
//
//  - ThreadRing<T> is a single-writer, drop-oldest ring of a trivially
//    copyable T that readers may copy while the writer runs. Every slot
//    carries a sequence number (a seqlock): the writer marks the slot
//    busy (odd), stores the payload, then publishes the even generation
//    of the append it holds. A reader keeps a copy only if the slot
//    carried the expected generation both before and after the copy; a
//    slot overwritten mid-copy counts as dropped. Payload words move
//    through atomics (std::atomic_ref), so a reader racing the writer is
//    never a plain-memory race. The writer never blocks or allocates.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "par/cacheline.hpp"

namespace hsd::obs {

template <class State>
class ThreadRegistry {
 public:
  /// `make` builds a thread's State on its first local() call.
  explicit ThreadRegistry(std::function<std::unique_ptr<State>()> make)
      : make_(std::move(make)),
        id_(nextId_.fetch_add(1, std::memory_order_relaxed)) {}
  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  /// The calling thread's State. Its first call builds the State under
  /// the mutex; after that this is lock-free and allocation-free.
  State& local() {
    if (tls_.owner == id_) return *tls_.state;
    return registerThisThread();
  }

  /// fn(tid, state) for every registered thread in tid order; a thread's
  /// tid is its registration index. Holds the mutex throughout, so a
  /// thread's first local() call waits for it.
  template <class Fn>
  void forEach(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t tid = 0; tid < states_.size(); ++tid)
      fn(std::uint32_t(tid), static_cast<const State&>(*states_[tid]));
  }

  /// Sum of fn(state) over every registered thread.
  template <class Fn>
  std::uint64_t sum(Fn&& fn) const {
    std::uint64_t total = 0;
    forEach([&](std::uint32_t, const State& st) { total += fn(st); });
    return total;
  }

 private:
  struct Tls {
    std::uint64_t owner = 0;
    State* state = nullptr;
  };
  /// Ids only need to be unique per State type: so is the slot.
  static inline std::atomic<std::uint64_t> nextId_{1};
  static inline thread_local Tls tls_{};

  State& registerThisThread() {
    const std::lock_guard<std::mutex> lock(mu_);
    State*& slot = registered_[std::this_thread::get_id()];
    if (slot == nullptr) {
      states_.push_back(make_());
      slot = states_.back().get();
    }
    tls_ = {id_, slot};
    return *slot;
  }

  const std::function<std::unique_ptr<State>()> make_;
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<State>> states_;
  std::unordered_map<std::thread::id, State*> registered_;
};

template <class T>
class ThreadRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring slots are copied word by word");
  static_assert(sizeof(T) % sizeof(std::uint64_t) == 0,
                "payload must be a whole number of words");
  static constexpr std::size_t kWords = sizeof(T) / sizeof(std::uint64_t);

 public:
  /// `capacity` == 0 is clamped to 1.
  explicit ThreadRing(std::size_t capacity)
      : slots_(std::max<std::size_t>(capacity, 1)) {
    static_assert(offsetof(ThreadRing, slots_) == par::kCacheLineSize,
                  "the writer's index fills the first line alone");
    static_assert(alignof(ThreadRing) == par::kCacheLineSize,
                  "no other thread's ring may share the index's line");
  }

  /// Appends overwritten by later ones so far (drop-oldest).
  std::uint64_t dropped() const {
    const std::uint64_t w = head_.value.load(std::memory_order_acquire);
    return w > capacity() ? w - capacity() : 0;
  }

  /// Records resident now: appends minus dropped().
  std::size_t size() const {
    return std::size_t(std::min<std::uint64_t>(
        head_.value.load(std::memory_order_acquire), capacity()));
  }

  /// Writer thread only: append `v`, overwriting the oldest record when
  /// full.
  void push(const T& v) {
    const std::uint64_t k = head_.value.load(std::memory_order_relaxed);
    Slot& s = slots_[k % slots_.size()];
    s.seq.store(2 * k + 1, std::memory_order_relaxed);
    // Each release store orders the busy mark before itself: a reader
    // that loads any word of this append also sees the slot busy.
    const auto* src = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < kWords; ++i) {
      std::uint64_t word;
      std::memcpy(&word, src + i * sizeof word, sizeof word);
      std::atomic_ref<std::uint64_t>(s.words[i]).store(
          word, std::memory_order_release);
    }
    s.seq.store(2 * k + 2, std::memory_order_release);
    head_.value.store(k + 1, std::memory_order_release);
  }

  /// fn(const T&) for every whole resident record, oldest first, from
  /// one cut of the ring. Returns the appends before that cut it did not
  /// return: those overwritten before the pass plus those overwritten
  /// while it copied them. Safe to run while the writer appends.
  template <class Fn>
  std::uint64_t read(Fn&& fn) const {
    const std::uint64_t w = head_.value.load(std::memory_order_acquire);
    const std::uint64_t first = w > capacity() ? w - capacity() : 0;
    std::uint64_t dropped = first;
    for (std::uint64_t k = first; k < w; ++k) {
      T v;
      if (copy(slots_[k % slots_.size()], 2 * k + 2, v))
        fn(static_cast<const T&>(v));
      else
        ++dropped;
    }
    return dropped;
  }

 private:
  std::size_t capacity() const { return slots_.size(); }

  struct Slot {
    /// 2k+1 while append k is being stored, 2k+2 once it is published.
    std::atomic<std::uint64_t> seq{0};
    /// mutable: readers load through std::atomic_ref, which needs a
    /// non-const referent.
    mutable std::uint64_t words[kWords];
  };

  /// Copies `s` into `out` if it holds generation `gen` before and after.
  static bool copy(const Slot& s, std::uint64_t gen, T& out) {
    if (s.seq.load(std::memory_order_acquire) != gen) return false;
    auto* dst = reinterpret_cast<unsigned char*>(&out);
    // Acquire loads keep the re-check below after every word load.
    for (std::size_t i = 0; i < kWords; ++i) {
      const std::uint64_t word = std::atomic_ref<std::uint64_t>(s.words[i])
                                     .load(std::memory_order_acquire);
      std::memcpy(dst + i * sizeof word, &word, sizeof word);
    }
    return s.seq.load(std::memory_order_relaxed) == gen;
  }

  /// Total appends, unwrapped — the only field the writer stores to.
  par::CachePadded<std::atomic<std::uint64_t>> head_{};
  std::vector<Slot> slots_;
};

}  // namespace hsd::obs
