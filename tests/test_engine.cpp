// Engine-layer tests: RunContext ownership/cancellation, stage
// composition order, batch boundaries, exception propagation,
// cancellation mid-stream, and thread-count independence of the staged
// evaluation pipeline (the determinism regression guard for the
// extract/eval/removal refactor).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "data/generator.hpp"
#include "engine/pipeline.hpp"
#include "engine/run_context.hpp"
#include "engine/stats.hpp"

namespace hsd::engine {
namespace {

TEST(RunContext, ResolvesThreadCountAndBatchSize) {
  RunContext ctx(3, 7);
  EXPECT_EQ(ctx.threadCount(), 3u);
  EXPECT_EQ(ctx.batchSize(), 7u);
  ctx.setBatchSize(0);
  EXPECT_EQ(ctx.batchSize(), 1u);

  RunContext def;
  EXPECT_GE(def.threadCount(), 1u);
}

TEST(RunContext, ParallelForCoversEveryIndexOnce) {
  for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
    RunContext ctx(threads);
    std::vector<std::atomic<int>> hits(1000);
    ctx.parallelFor(1000, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(RunContext, ParallelForReusesOnePool) {
  RunContext ctx(4);
  EXPECT_EQ(ctx.pool().threadCount(), 4u);
  ThreadPool* first = &ctx.pool();
  ctx.parallelFor(64, [](std::size_t) {});
  EXPECT_EQ(&ctx.pool(), first);
}

TEST(RunContext, NestedParallelForRunsInlineWithoutDeadlock) {
  RunContext ctx(2);
  std::atomic<int> count{0};
  ctx.parallelFor(4, [&](std::size_t) {
    ctx.parallelFor(8, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(RunContext, CancellationStopsParallelFor) {
  RunContext ctx(2);
  ctx.requestCancel();
  EXPECT_TRUE(ctx.cancelRequested());
  EXPECT_THROW(ctx.parallelFor(10, [](std::size_t) {}), CancelledError);
}

TEST(RunContext, ResetCancelMakesACancelledContextReusable) {
  // Regression: cancellation used to be one-shot — a pooled context that
  // served a cancelled run rejected every subsequent run.
  RunContext ctx(2);
  ctx.requestCancel();
  EXPECT_THROW(ctx.parallelFor(10, [](std::size_t) {}), CancelledError);
  ctx.resetCancel();
  EXPECT_FALSE(ctx.cancelRequested());
  std::atomic<int> count{0};
  ctx.parallelFor(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(RunContext, CancelMidParallelForPropagatesCleanlyAtEightThreads) {
  // A CancelledError thrown inside pool workers must surface on the
  // submitting thread (not terminate the process or deadlock the pool)
  // and must stop the remaining range promptly.
  RunContext ctx(8);
  constexpr std::size_t kN = 1 << 20;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(ctx.parallelFor(kN,
                               [&](std::size_t i) {
                                 executed.fetch_add(
                                     1, std::memory_order_relaxed);
                                 if (i == 1000) ctx.requestCancel();
                               }),
               CancelledError);
  EXPECT_GT(executed.load(), 0u);
  EXPECT_LT(executed.load(), kN);  // workers stopped claiming chunks
  // The pool survives and the context runs again after a reset.
  ctx.resetCancel();
  std::atomic<std::size_t> after{0};
  ctx.parallelFor(1000, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 1000u);
}

TEST(RunContext, ExpiredDeadlineBehavesAsCancellation) {
  RunContext ctx(2);
  EXPECT_FALSE(ctx.hasDeadline());
  ctx.setDeadline(std::chrono::steady_clock::now() +
                  std::chrono::hours(1));
  EXPECT_TRUE(ctx.hasDeadline());
  EXPECT_FALSE(ctx.deadlineExpired());
  EXPECT_FALSE(ctx.cancelRequested());
  std::atomic<int> count{0};
  ctx.parallelFor(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);

  ctx.setDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx.deadlineExpired());
  EXPECT_TRUE(ctx.cancelRequested());
  EXPECT_THROW(ctx.parallelFor(8, [](std::size_t) {}), CancelledError);
  // resetCancel clears the deadline along with the flag.
  ctx.resetCancel();
  EXPECT_FALSE(ctx.hasDeadline());
  EXPECT_FALSE(ctx.cancelRequested());
}

TEST(EngineStats, RecordsAndDumpsJson) {
  EngineStats stats;
  stats.record("alpha", 10, 0.5);
  stats.record("alpha", 5, 0.25);
  stats.record("beta", 1, 0.125);
  const StageStats a = stats.rollup("alpha");
  EXPECT_EQ(a.calls, 2u);
  EXPECT_EQ(a.items, 15u);
  EXPECT_DOUBLE_EQ(a.seconds, 0.75);
  EXPECT_EQ(stats.rollup("missing"), StageStats{});

  const std::string json = stats.toJson();
  EXPECT_NE(json.find("\"alpha\": {\"calls\": 2, \"items\": 15"),
            std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  stats.clear();
  EXPECT_EQ(stats.toJson(), "{}");
}

TEST(EngineStats, JsonAndSnapshotsFollowRegistrationOrder) {
  // Keys come out in first-record order, not name order, so ENGINE_STATS
  // JSON lines stay byte-stable run over run.
  EngineStats stats;
  stats.record("zeta", 1, 0.0);
  stats.record("alpha", 1, 0.0);
  stats.record("zeta", 1, 0.0);
  stats.recordCache("mu", 2, 1, 0);
  stats.recordCache("kappa", 1, 1, 0);

  const auto cacheSnap = stats.cacheRollups();
  ASSERT_EQ(cacheSnap.size(), 2u);
  EXPECT_EQ(cacheSnap[0].first, "mu");
  EXPECT_EQ(cacheSnap[1].first, "kappa");
  EXPECT_EQ(stats.cacheRollup("mu").hits, 2u);

  const std::string json = stats.toJson();
  EXPECT_LT(json.find("\"zeta\""), json.find("\"alpha\""));
  EXPECT_LT(json.find("\"alpha\""), json.find("\"cache/mu\""));
  EXPECT_LT(json.find("\"cache/mu\""), json.find("\"cache/kappa\""));
  EXPECT_NE(json.find("\"cache/mu\": {\"hits\": 2, \"misses\": 1"),
            std::string::npos);
}

TEST(Pipeline, ComposesStagesInOrderPerBatch) {
  RunContext ctx(1, 4);  // batch size 4 over 10 items -> batches 4,4,2
  std::vector<std::string> log;
  Stage<int, int> first{"first",
                        [&log](RunContext&, std::vector<int>&& b) {
                          log.push_back("first:" + std::to_string(b.size()));
                          for (int& v : b) v += 1;
                          return std::move(b);
                        }};
  Stage<int, int> second{"second",
                         [&log](RunContext&, std::vector<int>&& b) {
                           log.push_back("second:" + std::to_string(b.size()));
                           for (int& v : b) v *= 10;
                           return std::move(b);
                         }};
  std::vector<int> in(10);
  for (int i = 0; i < 10; ++i) in[std::size_t(i)] = i;
  const std::vector<int> out = runPipeline(ctx, in, first, second);

  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[std::size_t(i)], (i + 1) * 10);
  // Each batch flows through the full stage chain before the next starts
  // (bounded batching), and stages run in composition order within it.
  const std::vector<std::string> want{"first:4", "second:4", "first:4",
                                      "second:4", "first:2", "second:2"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(ctx.stats().rollup("first").calls, 3u);
  EXPECT_EQ(ctx.stats().rollup("first").items, 10u);
  EXPECT_EQ(ctx.stats().rollup("second").calls, 3u);
}

TEST(Pipeline, MapAndFilterStagesKeepOrder) {
  RunContext ctx(4, 3);
  auto dbl = mapStage<int>("dbl", [](const int& v) { return v * 2; });
  auto odd = filterMapStage<int>("odd", [](const int& v) -> std::optional<int> {
    if (v % 4 == 0) return std::nullopt;
    return v;
  });
  std::vector<int> in(100);
  for (int i = 0; i < 100; ++i) in[std::size_t(i)] = i;
  const std::vector<int> out = runPipeline(ctx, in, dbl, odd);
  // Doubled values not divisible by 4, in input order: 2, 6, 10, ...
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], int(4 * i + 2));
}

TEST(Pipeline, ExceptionInStagePropagatesAndStopsStream) {
  RunContext ctx(2, 8);
  std::atomic<int> seen{0};
  auto boom = mapStage<int>("boom", [&seen](const int& v) {
    ++seen;
    if (v == 11) throw std::invalid_argument("poisoned item");
    return v;
  });
  std::vector<int> in(64);
  for (int i = 0; i < 64; ++i) in[std::size_t(i)] = i;
  EXPECT_THROW(runPipeline(ctx, in, boom), std::invalid_argument);
  // The poisoned batch is the second one; later batches never start.
  EXPECT_LT(seen.load(), 64);
}

TEST(Pipeline, CancellationMidStreamStopsBeforeNextBatch) {
  RunContext ctx(1, 10);
  std::size_t batches = 0;
  Stage<int, int> cancelAfterFirst{
      "cancel", [&batches](RunContext& c, std::vector<int>&& b) {
        if (++batches == 1) c.requestCancel();
        return std::move(b);
      }};
  std::vector<int> in(100, 1);
  EXPECT_THROW(runPipeline(ctx, in, cancelAfterFirst), CancelledError);
  // Cancel was requested inside batch 1; the check before batch 2 fires.
  EXPECT_EQ(batches, 1u);
}

TEST(Pipeline, EmptyInputRunsNoStages) {
  RunContext ctx(2);
  auto id = mapStage<int>("id", [](const int& v) { return v; });
  EXPECT_TRUE(runPipeline(ctx, std::vector<int>{}, id).empty());
  EXPECT_EQ(ctx.stats().rollup("id").calls, 0u);
}

// ---------------------------------------------------------------------------
// Determinism regression: the staged evaluator must report byte-identical
// sorted ClipWindow lists for threads=1 vs threads=8 on a seeded layout
// (guards the refactor against reduction-order bugs).

using EvalFixture = tests::DetectorFixture;

const EvalFixture& evalFixture() { return tests::detectorFixture(); }

TEST(EngineDeterminism, EvaluateLayoutSingleVsEightThreadsByteIdentical) {
  const EvalFixture& f = evalFixture();
  core::EvalParams p;
  RunContext serial(1);
  RunContext wide(8);
  core::EvalResult a = core::evaluateLayout(f.detector, f.test.layout, p,
                                            serial);
  core::EvalResult b = core::evaluateLayout(f.detector, f.test.layout, p,
                                            wide);
  ASSERT_FALSE(a.reported.empty());
  std::sort(a.reported.begin(), a.reported.end());
  std::sort(b.reported.begin(), b.reported.end());
  ASSERT_EQ(a.reported.size(), b.reported.size());
  for (std::size_t i = 0; i < a.reported.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.reported[i], &b.reported[i], sizeof(ClipWindow)),
              0)
        << "report " << i << " differs between 1 and 8 threads";
  }
  EXPECT_EQ(a.candidateClips, b.candidateClips);
  EXPECT_EQ(a.flaggedBeforeRemoval, b.flaggedBeforeRemoval);
}

TEST(EngineDeterminism, BatchSizeDoesNotChangeReports) {
  const EvalFixture& f = evalFixture();
  core::EvalParams p;
  RunContext small(4, 16);
  RunContext large(4, 4096);
  const core::EvalResult a =
      core::evaluateLayout(f.detector, f.test.layout, p, small);
  const core::EvalResult b =
      core::evaluateLayout(f.detector, f.test.layout, p, large);
  EXPECT_EQ(a.reported, b.reported);
  EXPECT_EQ(a.candidateClips, b.candidateClips);
}

TEST(EngineDeterminism, StagedPipelineEmitsStats) {
  const EvalFixture& f = evalFixture();
  RunContext ctx(4);
  const core::EvalResult res =
      core::evaluateLayout(f.detector, f.test.layout, core::EvalParams{}, ctx);
  ASSERT_FALSE(res.reported.empty());
  for (const char* stage :
       {"extract/screen", "extract/candidates", "eval/clip", "eval/features",
        "eval/svm", "eval/feedback", "eval/removal"}) {
    EXPECT_GT(ctx.stats().rollup(stage).calls, 0u) << stage;
  }
  EXPECT_EQ(ctx.stats().rollup("extract/candidates").items,
            res.candidateClips);
  EXPECT_EQ(ctx.stats().rollup("eval/svm").items,
            ctx.stats().rollup("eval/clip").items);
}

TEST(EngineDeterminism, CancelledEvaluationThrows) {
  const EvalFixture& f = evalFixture();
  RunContext ctx(2);
  ctx.requestCancel();
  EXPECT_THROW(core::evaluateLayout(f.detector, f.test.layout,
                                    core::EvalParams{}, ctx),
               CancelledError);
}

TEST(EngineDeterminism, ContextRunsCleanlyAfterCancelledEvaluation) {
  // The pool-checkin contract end to end: cancel an evaluation, reset the
  // context, and the same context must produce the same report as a fresh
  // one (no cancellation residue, no stats bleed changing behavior).
  const EvalFixture& f = evalFixture();
  RunContext fresh(2);
  const core::EvalResult want =
      core::evaluateLayout(f.detector, f.test.layout, core::EvalParams{},
                           fresh);

  RunContext reused(2);
  reused.requestCancel();
  EXPECT_THROW(core::evaluateLayout(f.detector, f.test.layout,
                                    core::EvalParams{}, reused),
               CancelledError);
  reused.resetCancel();
  reused.stats().clear();
  const core::EvalResult got = core::evaluateLayout(
      f.detector, f.test.layout, core::EvalParams{}, reused);
  EXPECT_EQ(got.reported, want.reported);
  EXPECT_EQ(got.candidateClips, want.candidateClips);
  EXPECT_EQ(got.flaggedBeforeRemoval, want.flaggedBeforeRemoval);
}

TEST(EngineDeterminism, DeadlineExpiryCancelsEvaluationMidRun) {
  const EvalFixture& f = evalFixture();
  RunContext ctx(4);
  ctx.setDeadline(std::chrono::steady_clock::now() +
                  std::chrono::microseconds(200));
  EXPECT_THROW(core::evaluateLayout(f.detector, f.test.layout,
                                    core::EvalParams{}, ctx),
               CancelledError);
  EXPECT_TRUE(ctx.deadlineExpired());
}

TEST(EngineDeterminism, TrainerStatsAndSharedContext) {
  const EvalFixture& f = evalFixture();
  RunContext ctx(2);
  const core::Detector det =
      core::trainDetector(f.training.clips, core::TrainParams{}, ctx);
  EXPECT_FALSE(det.kernels.empty());
  for (const char* stage :
       {"train/classify", "train/features", "train/kernels", "train/platt"}) {
    EXPECT_GT(ctx.stats().rollup(stage).calls, 0u) << stage;
  }
}

}  // namespace
}  // namespace hsd::engine
