// Thread pool and parallelFor tests. The pool under test is obtained
// through engine::RunContext — nothing constructs a ThreadPool directly
// (the context owns the one pool per run).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "engine/run_context.hpp"
#include "par/thread_pool.hpp"

namespace hsd {
namespace {

TEST(ThreadPool, ExecutesAllTasks) {
  engine::RunContext ctx(4);
  ThreadPool& pool = ctx.pool();
  EXPECT_EQ(pool.threadCount(), 4u);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([&count] { ++count; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  engine::RunContext ctx(2);
  auto fut = ctx.pool().submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, MemberParallelForChunksByGrain) {
  engine::RunContext ctx(4);
  ThreadPool& pool = ctx.pool();
  for (const std::size_t grain : {std::size_t(0), std::size_t(1),
                                  std::size_t(7), std::size_t(1000)}) {
    std::vector<std::atomic<int>> hits(500);
    pool.parallelFor(500, [&](std::size_t i) { ++hits[i]; }, grain);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ThreadPool, NestedMemberParallelForRunsInline) {
  engine::RunContext ctx(2);
  ThreadPool& pool = ctx.pool();
  std::atomic<int> count{0};
  pool.parallelFor(4, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::inWorker());
    pool.parallelFor(8, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 32);
  EXPECT_FALSE(ThreadPool::inWorker());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t(1), std::size_t(3),
                                    std::size_t(8)}) {
    engine::RunContext ctx(threads);
    std::vector<std::atomic<int>> hits(500);
    ctx.pool().parallelFor(500, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits)
      EXPECT_EQ(h.load(), 1) << "threads " << threads;
  }
}

TEST(ParallelFor, GrainOverloadCoversEveryIndexExactlyOnce) {
  engine::RunContext ctx(4);
  for (const std::size_t grain : {std::size_t(0), std::size_t(1),
                                  std::size_t(13), std::size_t(512)}) {
    std::vector<std::atomic<int>> hits(500);
    ctx.pool().parallelFor(500, [&](std::size_t i) { ++hits[i]; }, grain);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ParallelFor, AutoGrainIsSaneAcrossSizes) {
  EXPECT_EQ(autoGrain(0, 4), 1u);
  EXPECT_EQ(autoGrain(1, 4), 1u);
  EXPECT_EQ(autoGrain(31, 4), 1u);   // fewer items than 8*threads
  EXPECT_EQ(autoGrain(3200, 4), 100u);
  EXPECT_GE(autoGrain(1u << 20, 8), 1u);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  engine::RunContext ctx(4);
  ctx.pool().parallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, SerialPathMatchesParallel) {
  engine::RunContext serial(1);
  engine::RunContext parallel(4);
  std::vector<int> a(64, 0), b(64, 0);
  serial.pool().parallelFor(64, [&](std::size_t i) { a[i] = int(i * i); });
  parallel.pool().parallelFor(64, [&](std::size_t i) { b[i] = int(i * i); });
  EXPECT_EQ(a, b);
}

TEST(ParallelFor, RethrowsFirstException) {
  engine::RunContext ctx(4);
  EXPECT_THROW(ctx.pool().parallelFor(100,
                                      [](std::size_t i) {
                                        if (i == 42)
                                          throw std::logic_error("x");
                                      }),
               std::logic_error);
}

TEST(ParallelFor, MoreThreadsThanWorkIsFine) {
  engine::RunContext ctx(16);
  std::atomic<int> count{0};
  ctx.pool().parallelFor(3, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, CancelledErrorInWorkersPropagatesAndStopsClaiming) {
  // A CancelledError thrown inside pool workers at threads=8 must come
  // back to the submitting thread as that exact type (clean cancellation,
  // no std::terminate, no deadlock) and stop the remaining range instead
  // of grinding through it.
  engine::RunContext ctx(8);
  ThreadPool& pool = ctx.pool();
  constexpr std::size_t kN = 1 << 20;
  std::atomic<std::size_t> executed{0};
  std::atomic<bool> cancelled{false};
  EXPECT_THROW(
      pool.parallelFor(kN,
                       [&](std::size_t i) {
                         executed.fetch_add(1, std::memory_order_relaxed);
                         if (i == 500) cancelled.store(true);
                         if (cancelled.load(std::memory_order_relaxed))
                           throw engine::CancelledError();
                       },
                       /*grain=*/256),
      engine::CancelledError);
  EXPECT_LT(executed.load(), kN);
  // The pool is still usable afterwards — workers survived the throw.
  std::atomic<std::size_t> after{0};
  pool.parallelFor(1024, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 1024u);
}

}  // namespace
}  // namespace hsd
