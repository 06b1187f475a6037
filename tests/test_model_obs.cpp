// Model-quality observability tests (ctest label: modelobs) for the
// margin-sketch / drift / low-margin-capture plane (obs/model_stats.hpp,
// obs/drift.hpp) and its wiring through the trainer, evaluator, server
// and admin surface. Pins:
//  - MarginSketch bucket layout: signed ordering, NaN and near-zero land
//    in the center bucket, bounds tile the real line, quantile
//    interpolation with open-bucket clamping;
//  - ModelStatsRecorder merge semantics: per-thread partitioning never
//    changes the merged sketch (threads=1 vs threads=8 identical), the
//    capture ring drops oldest and counts everything (and returns only
//    whole, in-order captures while it wraps under live snapshots),
//    capture hashes render as 16 hex digits, out-of-range slots are
//    counted drops, steady-state recording never allocates;
//  - evaluation with the plane enabled stays byte-identical to the bare
//    run across {1,8} threads x {monolithic, tiled}, and all four
//    configurations produce the identical /modelz quantile/count JSON;
//  - the training-time baseline: consistent with the kernels, round-trips
//    through Detector::save/load (including cluster-name recovery, since
//    topoKey is not serialized), never perturbs fingerprint(), and a
//    garbage trailer is rejected;
//  - fingerprint() content sensitivity: every field saveCore() writes
//    (one-ulp nudge, flipped bool, +-1 count, reordering) changes it;
//    topoKey, stats and the baseline do not; copies and save/load round
//    trips keep it; a hand-built detector's value is pinned;
//  - DriftScorer: steady traffic scores ~0 PSI, a shifted distribution
//    flips past the threshold, the rolling window selects the newest
//    sample at least windowSeconds old (boundary inclusive), the sample
//    ring stays bounded;
//  - the acceptance scenario end to end: traffic replayed through
//    DetectionServer with the plane mounted — steady replay keeps every
//    cluster un-drifted, a geometrically scaled layout flips the score;
//  - admin surfacing: /modelz (strict params, cluster filter), the
//    /statsz "model" section, /readyz?degraded carrying modelDrift.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "engine/run_context.hpp"
#include "mini_json.hpp"
#include "net/http.hpp"
#include "obs/admin.hpp"
#include "obs/drift.hpp"
#include "obs/metrics.hpp"
#include "obs/model_stats.hpp"
#include "ring_hammer.hpp"
#include "serve/server.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps it.
namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace hsd::obs {
namespace {

using hsd::tests::parsesAsJson;

constexpr std::size_t kCenter = MarginSketch::kBucketsPerSide;

const tests::DetectorFixture& fx() { return tests::detectorFixture(); }

/// Canonical report of a bare (plane-off) single-threaded evaluation —
/// the byte-for-byte reference for every observed run.
const std::string& bareReport() {
  static const std::string report = [] {
    engine::RunContext ctx(1);
    return tests::canonicalReport(core::evaluateLayout(
        fx().detector, fx().test.layout, core::EvalParams{}, ctx));
  }();
  return report;
}

core::EvalParams tiledParams(Coord tileSize) {
  core::EvalParams p;
  p.tiling.tileSize = tileSize;
  return p;
}

/// Evaluate the fixture layout with a recorder attached (no stage cache:
/// every window must actually reach the SVM and record).
core::EvalResult runObserved(const core::EvalParams& p, std::size_t threads,
                             std::shared_ptr<ModelStatsRecorder> rec) {
  engine::RunContext ctx(threads);
  ctx.attachModelStats(std::move(rec));
  return core::evaluateLayout(fx().detector, fx().test.layout, p, ctx);
}

/// Freeze a live snapshot as a drift baseline (the shapes are identical
/// by design; this is also how the serve-path tests pin "steady traffic
/// does not drift" without depending on training/evaluation margins
/// agreeing to within a log bucket).
ModelBaseline baselineFromSnapshot(const ModelStatsRecorder::Snapshot& snap) {
  ModelBaseline base;
  base.clusters.reserve(snap.clusters.size());
  for (const ModelStatsRecorder::ClusterCounts& cc : snap.clusters) {
    ModelBaseline::Cluster c;
    c.name = cc.name;
    c.hot = cc.hot;
    c.cold = cc.cold;
    c.buckets = cc.buckets;
    base.clusters.push_back(std::move(c));
  }
  return base;
}

/// The fixture layout with every rectangle scaled by num/den — the
/// "injected distribution shift": all widths and spacings move together,
/// so live feature vectors no longer look like the baseline's.
Layout scaledLayout(const Layout& src, Coord num, Coord den) {
  Layout out(src.name() + "-scaled");
  for (const auto& [id, layer] : src.layers())
    for (const Rect& r : layer.rects())
      out.addRect(id, Rect{r.lo.x * num / den, r.lo.y * num / den,
                           r.hi.x * num / den, r.hi.y * num / den});
  return out;
}

// ---------------------------------------------------------------------------
// MarginSketch bucket layout

TEST(MarginSketch, BucketsOrderSignedMarginsAndAbsorbNaN) {
  // Near-boundary values and NaN (an SVM decision on garbage input) land
  // in the center bucket.
  EXPECT_EQ(MarginSketch::bucketOf(0.0), kCenter);
  EXPECT_EQ(MarginSketch::bucketOf(5e-4), kCenter);
  EXPECT_EQ(MarginSketch::bucketOf(-5e-4), kCenter);
  EXPECT_EQ(MarginSketch::bucketOf(std::nan("")), kCenter);
  // First resolved magnitudes sit immediately beside the center.
  EXPECT_EQ(MarginSketch::bucketOf(1.5e-3), kCenter + 1);
  EXPECT_EQ(MarginSketch::bucketOf(-1.5e-3), kCenter - 1);
  // Outermost buckets absorb arbitrarily large magnitudes.
  EXPECT_EQ(MarginSketch::bucketOf(1e12), MarginSketch::kNumBuckets - 1);
  EXPECT_EQ(MarginSketch::bucketOf(-1e12), 0u);
  // Bucket index follows value order, and the layout is symmetric.
  std::size_t prev = 0;
  for (double v = -2e4; v <= 2e4; v += 137.0) {
    const std::size_t b = MarginSketch::bucketOf(v);
    EXPECT_GE(b, prev) << "v=" << v;
    prev = b;
    if (v > 0) {
      EXPECT_EQ(MarginSketch::bucketOf(-v),
                MarginSketch::kNumBuckets - 1 - b)
          << "v=" << v;
    }
  }
}

TEST(MarginSketch, BucketBoundsTileTheRealLine) {
  EXPECT_EQ(MarginSketch::lowerBound(0),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(MarginSketch::upperBound(MarginSketch::kNumBuckets - 1),
            std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(MarginSketch::lowerBound(kCenter), -MarginSketch::kStart);
  EXPECT_DOUBLE_EQ(MarginSketch::upperBound(kCenter), MarginSketch::kStart);
  for (std::size_t b = 0; b + 1 < MarginSketch::kNumBuckets; ++b)
    EXPECT_DOUBLE_EQ(MarginSketch::upperBound(b), MarginSketch::lowerBound(b + 1))
        << "bucket " << b;
  // A value strictly inside a finite bucket's range maps back to it.
  for (std::size_t b = 1; b + 1 < MarginSketch::kNumBuckets; ++b) {
    const double mid =
        0.5 * (MarginSketch::lowerBound(b) + MarginSketch::upperBound(b));
    EXPECT_EQ(MarginSketch::bucketOf(mid), b) << "bucket " << b;
  }
}

TEST(MarginSketch, QuantileInterpolatesWithinBucketsAndClampsOpenEnds) {
  MarginSketch::Counts c{};
  EXPECT_EQ(MarginSketch::total(c), 0u);
  EXPECT_DOUBLE_EQ(MarginSketch::quantile(c, 0.5), 0.0);  // empty: 0

  // Everything in one finite bucket: quantiles stay inside its range.
  const std::size_t b = kCenter + 1;  // [1e-3, 2e-3)
  c[b] = 100;
  EXPECT_EQ(MarginSketch::total(c), 100u);
  EXPECT_DOUBLE_EQ(MarginSketch::quantile(c, 0.0), MarginSketch::lowerBound(b));
  for (const double q : {0.1, 0.5, 0.9, 1.0}) {
    const double v = MarginSketch::quantile(c, q);
    EXPECT_GE(v, MarginSketch::lowerBound(b)) << "q=" << q;
    EXPECT_LE(v, MarginSketch::upperBound(b)) << "q=" << q;
  }
  // Split across two buckets: the top quartile sits in the higher one.
  c = {};
  c[kCenter + 1] = 50;  // [1e-3, 2e-3)
  c[kCenter + 3] = 50;  // [4e-3, 8e-3)
  EXPECT_LT(MarginSketch::quantile(c, 0.25), 2e-3);
  EXPECT_GE(MarginSketch::quantile(c, 0.75), 4e-3);
  EXPECT_LE(MarginSketch::quantile(c, 0.75), 8e-3);
  // Open-ended outer buckets clamp to their finite bound instead of
  // reporting infinity.
  c = {};
  c[MarginSketch::kNumBuckets - 1] = 10;
  const double top = MarginSketch::quantile(c, 0.99);
  EXPECT_TRUE(std::isfinite(top));
  EXPECT_DOUBLE_EQ(top,
                   MarginSketch::lowerBound(MarginSketch::kNumBuckets - 1));
  c = {};
  c[0] = 10;
  const double bottom = MarginSketch::quantile(c, 0.01);
  EXPECT_TRUE(std::isfinite(bottom));
  EXPECT_DOUBLE_EQ(bottom, MarginSketch::upperBound(0));
}

// ---------------------------------------------------------------------------
// ModelStatsRecorder mechanics

TEST(ModelStatsRecorder, NamesSlotsAndCountsMergeAcrossThreads) {
  ModelStatsRecorder rec({"a", ""});
  ASSERT_EQ(rec.numSlots(), 3u);  // a, k1, trailing feedback pseudo-slot
  EXPECT_EQ(rec.clusterNames()[0], "a");
  EXPECT_EQ(rec.clusterNames()[1], "k1");  // empty names render as k<i>
  EXPECT_EQ(rec.clusterNames()[2], "feedback");
  EXPECT_EQ(rec.feedbackSlot(), 2u);

  constexpr int kThreads = 8;
  constexpr int kEach = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kEach; ++i)
        rec.record(std::size_t(t) % 2, t % 2 == 0 ? 1.5 : -1.5, t % 2 == 0);
    });
  for (std::thread& th : threads) th.join();

  const ModelStatsRecorder::Snapshot snap = rec.snapshot();
  ASSERT_EQ(snap.clusters.size(), 3u);
  EXPECT_EQ(snap.clusters[0].hot, std::uint64_t(4 * kEach));
  EXPECT_EQ(snap.clusters[0].cold, 0u);
  EXPECT_EQ(snap.clusters[1].hot, 0u);
  EXPECT_EQ(snap.clusters[1].cold, std::uint64_t(4 * kEach));
  EXPECT_EQ(snap.clusters[2].count(), 0u);
  EXPECT_EQ(snap.clusters[0].buckets[MarginSketch::bucketOf(1.5)],
            std::uint64_t(4 * kEach));
  EXPECT_EQ(snap.clusters[1].buckets[MarginSketch::bucketOf(-1.5)],
            std::uint64_t(4 * kEach));
  EXPECT_EQ(snap.droppedRecords, 0u);

  // bucketCounts() (the drift scorer's cheap view) agrees with snapshot.
  const std::vector<MarginSketch::Counts> counts = rec.bucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  for (std::size_t s = 0; s < counts.size(); ++s)
    EXPECT_EQ(counts[s], snap.clusters[s].buckets) << "slot " << s;
}

TEST(ModelStatsRecorder, ThreadPartitioningNeverChangesTheMergedSketch) {
  // The same multiset of (slot, margin, verdict) observations, recorded
  // single-threaded vs scattered over 8 threads, must merge to the
  // identical sketch — bucketing is a pure function and merging is
  // addition, so the JSON (quantiles included) matches byte for byte.
  constexpr int kN = 4096;
  const auto obsAt = [](int i) {
    const std::size_t slot = std::size_t(i) % 2;
    const double margin = (i % 7 - 3) * 0.37 + double(i % 13) * 1e-3;
    return std::tuple<std::size_t, double, bool>(slot, margin, margin > 0);
  };

  ModelStatsRecorder serial({"a", "b"});
  for (int i = 0; i < kN; ++i) {
    const auto [slot, margin, hot] = obsAt(i);
    serial.record(slot, margin, hot);
  }

  ModelStatsRecorder parallel({"a", "b"});
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&parallel, &obsAt, t] {
      for (int i = t; i < kN; i += kThreads) {
        const auto [slot, margin, hot] = obsAt(i);
        parallel.record(slot, margin, hot);
      }
    });
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(serial.bucketCounts(), parallel.bucketCounts());
  EXPECT_EQ(serial.toJson(0), parallel.toJson(0));
}

TEST(ModelStatsRecorder, CaptureRingDropsOldestAndCountsEverything) {
  ModelStatsRecorder::Options opts;
  opts.captureWidth = 0.25;
  opts.captureCapacity = 4;
  ModelStatsRecorder rec({"a"}, opts);
  for (int i = 0; i < 7; ++i)
    rec.capture(0, 0.01 * i, 100 * i, 200 * i, std::uint64_t(i));
  const ModelStatsRecorder::Snapshot snap = rec.snapshot();
  EXPECT_EQ(snap.capturedTotal, 7u);
  EXPECT_EQ(snap.droppedCaptures, 3u);
  ASSERT_EQ(snap.captures.size(), 4u);
  // Survivors are exactly the newest four, in ring order.
  std::vector<std::uint64_t> hashes;
  for (const ModelStatsRecorder::Capture& c : snap.captures) {
    hashes.push_back(c.contentHash);
    EXPECT_EQ(c.anchorX, std::int64_t(100 * c.contentHash));
    EXPECT_EQ(c.anchorY, std::int64_t(200 * c.contentHash));
    EXPECT_EQ(c.cluster, 0u);
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(hashes, (std::vector<std::uint64_t>{3, 4, 5, 6}));
}

TEST(ModelStatsRecorder, SnapshotsWhileTheCaptureRingWrapsReturnWholeCaptures) {
  ModelStatsRecorder::Options opts;
  opts.captureCapacity = 4;
  ModelStatsRecorder rec({"a"}, opts);
  hsd::tests::hammerRingUnderSnapshots(
      [&](std::uint64_t i) {
        rec.capture(0, 0.01, std::int64_t(i), std::int64_t(2 * i), i);
      },
      [&] {
        const ModelStatsRecorder::Snapshot snap = rec.snapshot();
        std::int64_t next = 0;
        for (const ModelStatsRecorder::Capture& c : snap.captures) {
          EXPECT_EQ(c.anchorY, 2 * c.anchorX);
          EXPECT_EQ(c.contentHash, std::uint64_t(c.anchorX));
          EXPECT_GE(c.anchorX, next) << "ring order must strictly increase";
          next = c.anchorX + 1;
        }
        EXPECT_EQ(snap.capturedTotal,
                  snap.captures.size() + snap.droppedCaptures);
        return snap.captures.size() + snap.droppedCaptures;
      });
}

TEST(ModelStatsRecorder, CaptureGateHonorsWidth) {
  ModelStatsRecorder::Options opts;
  opts.captureWidth = 0.25;
  ModelStatsRecorder rec({"a"}, opts);
  EXPECT_TRUE(rec.shouldCapture(0.1));
  EXPECT_TRUE(rec.shouldCapture(-0.1));
  EXPECT_FALSE(rec.shouldCapture(0.25));  // strict: exactly-at-width is out
  EXPECT_FALSE(rec.shouldCapture(-3.0));

  ModelStatsRecorder::Options off;
  off.captureWidth = 0.0;  // capture disabled entirely
  ModelStatsRecorder none({"a"}, off);
  EXPECT_FALSE(none.shouldCapture(0.0));
}

TEST(ModelStatsRecorder, OutOfRangeSlotsAreCountedDrops) {
  ModelStatsRecorder rec({"a"});
  rec.record(rec.numSlots(), 1.0, true);
  rec.capture(99, 0.0, 0, 0, 0);
  const ModelStatsRecorder::Snapshot snap = rec.snapshot();
  EXPECT_EQ(snap.droppedRecords, 2u);
  for (const ModelStatsRecorder::ClusterCounts& cc : snap.clusters)
    EXPECT_EQ(cc.count(), 0u);
  EXPECT_EQ(snap.capturedTotal, 0u);
}

TEST(ModelStatsRecorder, ToJsonParsesFiltersByClusterAndCapsCaptures) {
  ModelStatsRecorder::Options opts;
  opts.captureWidth = 0.25;
  ModelStatsRecorder rec({"alpha", "beta"}, opts);
  rec.record(0, 2.0, true);
  rec.record(1, -2.0, false);
  rec.record(1, -1.0, false);
  for (int i = 0; i < 5; ++i) rec.capture(i % 2, 0.01, i, i, std::uint64_t(i));

  const std::string all = rec.toJson();
  EXPECT_TRUE(parsesAsJson(all)) << all;
  EXPECT_NE(all.find("\"alpha\""), std::string::npos);
  EXPECT_NE(all.find("\"beta\""), std::string::npos);
  EXPECT_NE(all.find("\"feedback\""), std::string::npos);
  EXPECT_NE(all.find("\"p50\""), std::string::npos);
  EXPECT_NE(all.find("\"capturedTotal\": 5"), std::string::npos);
  // Content hashes render as fixed-width 64-bit ids, small ones included.
  EXPECT_NE(all.find("\"contentHash\": \"0000000000000004\""),
            std::string::npos)
      << all;

  // Cluster filter: one cluster object, only that cluster's captures.
  const std::string beta = rec.toJson(64, "beta");
  EXPECT_TRUE(parsesAsJson(beta)) << beta;
  EXPECT_EQ(beta.find("\"alpha\""), std::string::npos);
  EXPECT_NE(beta.find("\"beta\""), std::string::npos);
  EXPECT_NE(beta.find("\"cold\": 2"), std::string::npos);

  // Capture cap: at most `captureLimit` capture objects survive (the
  // newest win); counting anchors is enough to see the cap.
  const std::string capped = rec.toJson(2);
  EXPECT_TRUE(parsesAsJson(capped)) << capped;
  std::size_t nCaptures = 0;
  for (std::size_t pos = capped.find("\"x\": "); pos != std::string::npos;
       pos = capped.find("\"x\": ", pos + 1))
    ++nCaptures;
  EXPECT_EQ(nCaptures, 2u);
  const std::string none = rec.toJson(0);
  EXPECT_TRUE(parsesAsJson(none)) << none;
  EXPECT_NE(none.find("\"captures\": []"), std::string::npos);

  // Margins print in shortest round-trip form: a low-margin capture
  // parses back to exactly the double that was recorded.
  const double margin = 0.12345678912345;
  rec.capture(0, margin, 9, 9, 9);
  const std::string exact = rec.toJson();
  EXPECT_TRUE(parsesAsJson(exact)) << exact;
  bool found = false;
  for (std::size_t at = exact.find("\"margin\": "); at != std::string::npos;
       at = exact.find("\"margin\": ", at + 1))
    found = found || std::strtod(exact.c_str() + at + 10, nullptr) == margin;
  EXPECT_TRUE(found) << exact;
}

TEST(ModelStatsRecorder, BindMetricsExportsPerClusterVerdictCounters) {
  MetricsRegistry registry;
  ModelStatsRecorder rec({"alpha"});
  rec.bindMetrics(registry);
  rec.record(0, 1.0, true);
  rec.record(0, 1.0, true);
  rec.record(0, -1.0, false);
  rec.record(rec.feedbackSlot(), -0.5, false);
  const std::string prom = registry.renderPrometheus();
  EXPECT_NE(prom.find("hsd_model_verdicts_total{cluster=\"alpha\","
                      "verdict=\"hot\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("hsd_model_verdicts_total{cluster=\"alpha\","
                      "verdict=\"cold\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("hsd_model_verdicts_total{cluster=\"feedback\","
                      "verdict=\"cold\"} 1"),
            std::string::npos);
}

TEST(ModelStatsRecorder, SteadyStateRecordingDoesNotAllocate) {
  ModelStatsRecorder::Options opts;
  opts.captureWidth = 0.25;
  opts.captureCapacity = 64;
  ModelStatsRecorder rec({"a", "b"}, opts);
  rec.record(0, 1.0, true);            // warm this thread's state
  rec.capture(0, 0.01, 1, 2, 3);       // and the capture path
  const std::uint64_t before = g_allocCount.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    rec.record(std::size_t(i) % 2, (i % 5 - 2) * 0.4, i % 2 == 0);
    if (rec.shouldCapture(0.01)) rec.capture(0, 0.01, i, i, std::uint64_t(i));
  }
  EXPECT_EQ(g_allocCount.load(std::memory_order_relaxed) - before, 0u);
}

// ---------------------------------------------------------------------------
// Evaluation integration: byte-identical reports, deterministic merge

TEST(ModelPlane, EvaluationStaysByteIdenticalAndSketchesMergeDeterministically) {
  // Big per-thread rings so tiled/threaded runs never drop captures —
  // then every configuration's merged counters must agree exactly.
  ModelStatsRecorder::Options opts;
  opts.captureWidth = 0.25;
  opts.captureCapacity = 1 << 16;
  struct Config {
    const char* name;
    std::size_t threads;
    Coord tileSize;
  };
  const Config configs[] = {
      {"mono-1", 1, 0},
      {"mono-8", 8, 0},
      {"tiled-1", 1, 9000},
      {"tiled-8", 8, 9000},
  };
  std::vector<std::string> modelJson;
  std::vector<std::uint64_t> totals;
  for (const Config& c : configs) {
    auto rec = std::make_shared<ModelStatsRecorder>(
        fx().detector.clusterNames(), opts);
    const core::EvalParams p =
        c.tileSize > 0 ? tiledParams(c.tileSize) : core::EvalParams{};
    const core::EvalResult res = runObserved(p, c.threads, rec);
    EXPECT_EQ(tests::canonicalReport(res), bareReport())
        << "report changed with the plane enabled: " << c.name;
    const ModelStatsRecorder::Snapshot snap = rec->snapshot();
    std::uint64_t total = 0;
    for (const ModelStatsRecorder::ClusterCounts& cc : snap.clusters)
      total += cc.count();
    EXPECT_GT(total, 0u) << c.name;
    EXPECT_EQ(snap.droppedCaptures, 0u) << c.name;
    EXPECT_EQ(snap.droppedRecords, 0u) << c.name;
    totals.push_back(total);
    // captureLimit 0: the per-run capture timestamps are excluded, so the
    // remaining body (per-cluster counts, quantiles, capturedTotal) is
    // the deterministic /modelz surface.
    modelJson.push_back(rec->toJson(0));
    EXPECT_TRUE(parsesAsJson(modelJson.back())) << modelJson.back();
  }
  for (std::size_t i = 1; i < modelJson.size(); ++i) {
    EXPECT_EQ(totals[i], totals[0])
        << configs[i].name << " vs " << configs[0].name;
    EXPECT_EQ(modelJson[i], modelJson[0])
        << configs[i].name << " vs " << configs[0].name;
  }
}

// ---------------------------------------------------------------------------
// Training-time baseline: consistency, persistence, fingerprint

TEST(DetectorBaseline, TrainedDetectorCarriesAConsistentBaseline) {
  const core::Detector& det = fx().detector;
  ASSERT_TRUE(det.hasBaseline);
  ASSERT_EQ(det.baseline.clusters.size(), det.kernels.size());
  const std::vector<std::string> names = det.clusterNames();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < det.baseline.clusters.size(); ++i) {
    const ModelBaseline::Cluster& c = det.baseline.clusters[i];
    EXPECT_EQ(c.name, names[i]);
    // Every attributed training vector lands in exactly one bucket.
    EXPECT_EQ(MarginSketch::total(c.buckets), c.hot + c.cold);
    total += c.hot + c.cold;
  }
  // Every training vector (hotspots incl. shift-derivative upsampling,
  // plus all non-hotspots) was attributed to some cluster.
  EXPECT_GT(total, 0u);
}

TEST(DetectorBaseline, RoundTripsThroughSaveLoadAndPreservesFingerprint) {
  const core::Detector& det = fx().detector;
  ASSERT_TRUE(det.hasBaseline);

  std::stringstream ss;
  det.save(ss);
  const core::Detector loaded = core::Detector::load(ss);
  ASSERT_TRUE(loaded.hasBaseline);
  ASSERT_EQ(loaded.baseline.clusters.size(), det.baseline.clusters.size());
  for (std::size_t i = 0; i < det.baseline.clusters.size(); ++i) {
    EXPECT_EQ(loaded.baseline.clusters[i].name, det.baseline.clusters[i].name);
    EXPECT_EQ(loaded.baseline.clusters[i].hot, det.baseline.clusters[i].hot);
    EXPECT_EQ(loaded.baseline.clusters[i].cold, det.baseline.clusters[i].cold);
    EXPECT_EQ(loaded.baseline.clusters[i].buckets,
              det.baseline.clusters[i].buckets);
  }
  // topoKey is not serialized; cluster names must survive through the
  // baseline section so a loaded model still labels its /modelz slots.
  EXPECT_EQ(loaded.clusterNames(), det.clusterNames());
  // The baseline is excluded from the fingerprint: cached verdict keys
  // survive attaching or dropping it.
  EXPECT_EQ(loaded.fingerprint(), det.fingerprint());
  core::Detector stripped = det;
  stripped.hasBaseline = false;
  EXPECT_EQ(stripped.fingerprint(), det.fingerprint());

  // A baseline-free save (the pre-baseline format) still loads.
  std::stringstream bare;
  stripped.save(bare);
  const core::Detector old = core::Detector::load(bare);
  EXPECT_FALSE(old.hasBaseline);
  EXPECT_EQ(old.fingerprint(), det.fingerprint());
}

TEST(DetectorBaseline, LoadRejectsAGarbageTrailer) {
  core::Detector stripped = fx().detector;
  stripped.hasBaseline = false;
  std::stringstream ss;
  stripped.save(ss);
  ss << "garbage 1 2\n";
  EXPECT_THROW(core::Detector::load(ss), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Fingerprint: a content hash over exactly the fields saveCore() writes

/// A small hand-built detector that sets every fingerprinted field: two
/// kernels, a feedback model and a Platt pair. Every value prints
/// exactly, so a save/load round trip reproduces it bit for bit.
core::Detector handBuiltDetector() {
  const auto kernel = [](double shift) {
    core::KernelEntry k;
    k.scaler = svm::Scaler({0.0, -1.0, 0.5}, {1.0, 2.0, 4.5});
    k.model = svm::SvmModel({{0.25 + shift, 0.5, 0.75}, {-0.5, 0.125, 1.0}},
                            {1.5, -0.75}, 0.375 + shift, 0.5);
    k.topoKey = "cluster";
    k.hotspotCount = 3;
    k.finalC = 2000.0;
    k.finalGamma = 0.02;
    k.selfIterations = 2;
    k.feedbackApplies = true;
    return k;
  };
  core::Detector d;
  d.kernels = {kernel(0.0), kernel(1.0)};
  d.hasFeedback = true;
  d.feedbackScaler = svm::Scaler({0.0, 0.0}, {8.0, 8.0});
  d.feedbackModel = svm::SvmModel({{0.5, 0.25}}, {-1.25}, 0.0625, 0.05);
  d.hasPlatt = true;
  d.platt = {-1.5, 0.25};
  return d;
}

/// `m` rebuilt after `edit` rewrote copies of its parts (sv, coef, rho,
/// gamma) — SvmModel keeps them private.
template <class Edit>
svm::SvmModel editedModel(const svm::SvmModel& m, Edit edit) {
  std::vector<svm::FeatureVector> sv;
  for (std::size_t i = 0; i < m.supportVectorCount(); ++i)
    sv.push_back(m.supportVector(i).vector());
  std::vector<double> coef = m.coefficients();
  double rho = m.rho();
  double gamma = m.gamma();
  edit(sv, coef, rho, gamma);
  return svm::SvmModel(std::move(sv), std::move(coef), rho, gamma);
}

double ulpUp(double x) {
  return std::nextafter(x, std::numeric_limits<double>::infinity());
}

struct DetectorEdit {
  const char* name;
  std::function<void(core::Detector&)> apply;
};

TEST(DetectorFingerprint, EverySerializedFieldChangesItAndNothingElseDoes) {
  using SVs = std::vector<svm::FeatureVector>;
  using Coefs = std::vector<double>;
  const core::Detector base = handBuiltDetector();
  const std::uint64_t fp = base.fingerprint();

  // One-ulp nudges, flipped bools and +-1 counts, one per field (and a
  // few reorderings: the hash is order-dependent like the file).
  const std::vector<DetectorEdit> changes = {
      {"clip.coreSide", [](auto& d) { d.params.clip.coreSide += 1; }},
      {"clip.clipSide", [](auto& d) { d.params.clip.clipSide -= 1; }},
      {"layer", [](auto& d) { d.params.layer += 1; }},
      {"features.maxInternal",
       [](auto& d) { d.params.features.maxInternal += 1; }},
      {"features.maxExternal",
       [](auto& d) { d.params.features.maxExternal += 1; }},
      {"features.maxDiagonal",
       [](auto& d) { d.params.features.maxDiagonal -= 1; }},
      {"features.maxSegment",
       [](auto& d) { d.params.features.maxSegment += 1; }},
      {"features.densityGridN",
       [](auto& d) { d.params.features.densityGridN += 1; }},
      {"features.canonicalize",
       [](auto& d) { d.params.features.canonicalize = false; }},
      {"feedbackFeatures.densityGridN",
       [](auto& d) { d.params.feedbackFeatures.densityGridN -= 1; }},
      {"kernel count", [](auto& d) { d.kernels.pop_back(); }},
      {"kernel order",
       [](auto& d) { std::swap(d.kernels[0], d.kernels[1]); }},
      {"hotspotCount", [](auto& d) { d.kernels[1].hotspotCount += 1; }},
      {"finalC", [](auto& d) { d.kernels[0].finalC = ulpUp(2000.0); }},
      {"finalGamma", [](auto& d) { d.kernels[1].finalGamma = ulpUp(0.02); }},
      {"selfIterations", [](auto& d) { d.kernels[0].selfIterations -= 1; }},
      {"feedbackApplies",
       [](auto& d) { d.kernels[1].feedbackApplies = false; }},
      {"scaler min",
       [](auto& d) {
         d.kernels[0].scaler = svm::Scaler({0.0, ulpUp(-1.0), 0.5},
                                           d.kernels[0].scaler.maxs());
       }},
      {"scaler max",
       [](auto& d) {
         d.kernels[1].scaler = svm::Scaler(d.kernels[1].scaler.mins(),
                                           {1.0, 2.0, ulpUp(4.5)});
       }},
      {"svm gamma",
       [](auto& d) {
         d.kernels[0].model = editedModel(
             d.kernels[0].model,
             [](SVs&, Coefs&, double&, double& g) { g = ulpUp(g); });
       }},
      {"svm rho",
       [](auto& d) {
         d.kernels[1].model = editedModel(
             d.kernels[1].model,
             [](SVs&, Coefs&, double& r, double&) { r = ulpUp(r); });
       }},
      {"coefficient",
       [](auto& d) {
         d.kernels[0].model = editedModel(
             d.kernels[0].model,
             [](SVs&, Coefs& c, double&, double&) { c[1] = ulpUp(c[1]); });
       }},
      {"support vector element",
       [](auto& d) {
         d.kernels[1].model = editedModel(
             d.kernels[1].model, [](SVs& sv, Coefs&, double&, double&) {
               sv[1][2] = ulpUp(sv[1][2]);
             });
       }},
      {"support vector order",
       [](auto& d) {
         d.kernels[0].model = editedModel(
             d.kernels[0].model, [](SVs& sv, Coefs&, double&, double&) {
               std::swap(sv[0], sv[1]);
             });
       }},
      {"support vector element order",
       [](auto& d) {
         d.kernels[0].model = editedModel(
             d.kernels[0].model, [](SVs& sv, Coefs&, double&, double&) {
               std::swap(sv[0][0], sv[0][2]);
             });
       }},
      {"hasFeedback", [](auto& d) { d.hasFeedback = false; }},
      {"feedback scaler",
       [](auto& d) {
         d.feedbackScaler = svm::Scaler({0.0, 0.0}, {8.0, ulpUp(8.0)});
       }},
      {"feedback model",
       [](auto& d) {
         d.feedbackModel = editedModel(
             d.feedbackModel, [](SVs& sv, Coefs&, double&, double&) {
               sv[0][1] = ulpUp(sv[0][1]);
             });
       }},
      {"hasPlatt", [](auto& d) { d.hasPlatt = false; }},
      {"platt.a", [](auto& d) { d.platt.a = ulpUp(d.platt.a); }},
      {"platt.b", [](auto& d) { d.platt.b = ulpUp(d.platt.b); }},
  };
  std::set<std::uint64_t> seen{fp};
  for (const DetectorEdit& e : changes) {
    core::Detector d = base;
    e.apply(d);
    const std::uint64_t changed = d.fingerprint();
    EXPECT_NE(changed, fp) << e.name;
    EXPECT_TRUE(seen.insert(changed).second) << e.name << " collided";
  }

  // Fields save() does not write into the core leave it alone.
  const std::vector<DetectorEdit> invariant = {
      {"topoKey", [](auto& d) { d.kernels[0].topoKey = "other"; }},
      {"stats",
       [](auto& d) {
         d.stats.rawHotspots = 7;
         d.stats.trainSeconds = 1.5;
       }},
      {"baseline",
       [](auto& d) {
         d.hasBaseline = true;
         d.baseline.clusters.resize(2);
         d.baseline.clusters[0].hot = 4;
       }},
      {"feedback model while hasFeedback is off",
       [](auto& d) {
         d.hasFeedback = false;
         d.feedbackModel = svm::SvmModel();
       }},
  };
  core::Detector noFeedback = base;
  noFeedback.hasFeedback = false;
  for (const DetectorEdit& e : invariant) {
    core::Detector d = base;
    e.apply(d);
    EXPECT_EQ(d.fingerprint(),
              d.hasFeedback ? fp : noFeedback.fingerprint())
        << e.name;
  }

  // A copy and a save/load round trip keep it.
  const core::Detector copy = base;
  EXPECT_EQ(copy.fingerprint(), fp);
  std::stringstream ss;
  base.save(ss);
  EXPECT_EQ(core::Detector::load(ss).fingerprint(), fp);

  // Pinned: the hash is a pure function of the values, never of
  // addresses or allocation order. A change here means every stored
  // cache key changes; update it only on purpose.
  EXPECT_EQ(fp, 0x8388fd8e4595c58eULL);
}

TEST(DetectorFingerprint, SurvivesSaveLoadWithNonRoundTrainingParameters) {
  // saveCore() once wrote the first kernel's finalC/finalGamma at the
  // stream's default 6 digits, so these parameters loaded rounded and
  // the fingerprint changed across a save/load round trip.
  core::TrainParams tp;
  tp.initC = 1000.0 / 3.0;
  tp.initGamma = 0.1 / 7.0;
  engine::RunContext ctx(1);
  const core::Detector det =
      core::trainDetector(tests::lineTrainingSet(), tp, ctx);
  ASSERT_FALSE(det.kernels.empty());
  std::stringstream ss;
  det.save(ss);
  const std::string text = ss.str();
  const core::Detector back = core::Detector::load(ss);
  EXPECT_EQ(back.kernels.front().finalC, det.kernels.front().finalC);
  EXPECT_EQ(back.kernels.front().finalGamma, det.kernels.front().finalGamma);
  EXPECT_EQ(back.fingerprint(), det.fingerprint());

  // A file in the old layout — first kernel's finalC/finalGamma at the
  // default 6 digits — still loads, with those two values as written.
  const std::size_t line = text.find("kernel ");
  ASSERT_NE(line, std::string::npos);
  const std::size_t eol = text.find('\n', line);
  std::istringstream fields(text.substr(line, eol - line));
  std::string kw, count, c, gamma, rest;
  fields >> kw >> count >> c >> gamma;
  std::getline(fields, rest);
  std::ostringstream sixC, sixGamma;
  sixC << det.kernels.front().finalC;
  sixGamma << det.kernels.front().finalGamma;
  const std::string old = text.substr(0, line) + kw + ' ' + count + ' ' +
                          sixC.str() + ' ' + sixGamma.str() + rest +
                          text.substr(eol);
  ASSERT_NE(old, text);  // the values really are not 6-digit round
  std::istringstream oldIn(old);
  const core::Detector legacy = core::Detector::load(oldIn);
  EXPECT_EQ(legacy.kernels.front().finalC, std::stod(sixC.str()));
  EXPECT_EQ(legacy.kernels.front().finalGamma, std::stod(sixGamma.str()));
  EXPECT_EQ(legacy.kernels.size(), det.kernels.size());
  EXPECT_EQ(legacy.hasPlatt, det.hasPlatt);
}

// ---------------------------------------------------------------------------
// DriftScorer

TEST(DriftScorer, SteadyTrafficScoresNearZeroAndShiftedTrafficFlips) {
  // Build a baseline from one recorder's traffic, then replay (a) the
  // identical distribution and (b) the same margins scaled 8x (three log
  // buckets) against it.
  const auto feed = [](ModelStatsRecorder& rec, double scale) {
    for (int i = 0; i < 400; ++i) {
      const double m = ((i % 9) - 4) * 0.31 * scale;
      rec.record(0, m, m > 0);
    }
  };
  ModelStatsRecorder ref({"a"});
  feed(ref, 1.0);
  const ModelBaseline base = baselineFromSnapshot(ref.snapshot());

  DriftConfig cfg;
  cfg.minWindowCount = 1;
  {
    auto live = std::make_shared<ModelStatsRecorder>(
        std::vector<std::string>{"a"});
    feed(*live, 1.0);
    DriftScorer scorer(base, cfg);
    scorer.setSource(live);
    const DriftScorer::Status st = scorer.status();
    ASSERT_EQ(st.clusters.size(), 2u);  // "a" + feedback
    EXPECT_EQ(st.clusters[0].windowCount, 400u);
    EXPECT_TRUE(st.clusters[0].scored);
    EXPECT_LT(st.clusters[0].psi, 0.01);
    EXPECT_FALSE(st.clusters[0].drifted);
    // The feedback pseudo-slot has no baseline cluster: never scored.
    EXPECT_FALSE(st.clusters[1].scored);
    EXPECT_FALSE(st.anyDrifted);
    const std::string json = scorer.toJson(st);
    EXPECT_TRUE(parsesAsJson(json)) << json;
    EXPECT_NE(json.find("\"psiThreshold\""), std::string::npos);
    EXPECT_NE(json.find("\"drifted\": false"), std::string::npos);
  }
  {
    auto live = std::make_shared<ModelStatsRecorder>(
        std::vector<std::string>{"a"});
    feed(*live, 8.0);
    DriftScorer scorer(base, cfg);
    scorer.setSource(live);
    const DriftScorer::Status st = scorer.status();
    EXPECT_TRUE(st.clusters[0].scored);
    EXPECT_GT(st.clusters[0].psi, cfg.psiThreshold);
    EXPECT_TRUE(st.clusters[0].drifted);
    EXPECT_TRUE(st.anyDrifted);
  }
}

TEST(DriftScorer, MinWindowCountGatesScoring) {
  ModelStatsRecorder ref({"a"});
  ref.record(0, 1.0, true);
  const ModelBaseline base = baselineFromSnapshot(ref.snapshot());
  DriftConfig cfg;
  cfg.minWindowCount = 50;
  auto live = std::make_shared<ModelStatsRecorder>(
      std::vector<std::string>{"a"});
  for (int i = 0; i < 49; ++i) live->record(0, -100.0, false);
  DriftScorer scorer(base, cfg);
  scorer.setSource(live);
  DriftScorer::Status st = scorer.status();
  // Heavily shifted but under the count floor: reported, never scored.
  EXPECT_EQ(st.clusters[0].windowCount, 49u);
  EXPECT_FALSE(st.clusters[0].scored);
  EXPECT_FALSE(st.anyDrifted);
  live->record(0, -100.0, false);
  st = scorer.status();
  EXPECT_TRUE(st.clusters[0].scored);
  EXPECT_TRUE(st.clusters[0].drifted);
}

TEST(DriftScorer, WindowBoundarySampleIsInclusiveAndRingStaysBounded) {
  using Clock = DriftScorer::Clock;
  using std::chrono::seconds;
  ModelStatsRecorder ref({"a"});
  for (int i = 0; i < 100; ++i) ref.record(0, 0.5, true);
  const ModelBaseline base = baselineFromSnapshot(ref.snapshot());

  DriftConfig cfg;
  cfg.windowSeconds = 60.0;
  cfg.minWindowCount = 1;
  auto live = std::make_shared<ModelStatsRecorder>(
      std::vector<std::string>{"a"});
  DriftScorer scorer(base, cfg);
  scorer.setSource(live);

  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 100; ++i) live->record(0, 0.5, true);   // baseline-like
  scorer.sample(t0);
  for (int i = 0; i < 100; ++i) live->record(0, -64.0, false);  // shifted

  // Early life (no sample windowSeconds old yet): zero-origin fallback —
  // the window covers everything, half steady half shifted.
  DriftScorer::Status st = scorer.status(t0 + seconds(1));
  EXPECT_EQ(st.clusters[0].windowCount, 200u);
  EXPECT_LE(st.clusters[0].coveredSeconds, cfg.windowSeconds);

  // At exactly the window boundary the t0 sample is selected (>= is
  // inclusive): the window is only the shifted tail, and drifts.
  st = scorer.status(t0 + seconds(60));
  EXPECT_EQ(st.clusters[0].windowCount, 100u);
  EXPECT_DOUBLE_EQ(st.clusters[0].coveredSeconds, 60.0);
  EXPECT_TRUE(st.clusters[0].drifted);

  // Scrape flood with a tiny ring: stays bounded (no growth, no crash)
  // and still scores.
  DriftConfig small = cfg;
  small.maxSamples = 4;
  DriftScorer flooded(base, small);
  flooded.setSource(live);
  for (int i = 0; i < 1000; ++i)
    flooded.sample(t0 + std::chrono::milliseconds(i));
  st = flooded.status(t0 + seconds(1));
  EXPECT_EQ(st.clusters[0].windowCount, 200u);  // zero-origin fallback

  // Re-pointing the source resets accumulated history.
  auto other = std::make_shared<ModelStatsRecorder>(
      std::vector<std::string>{"a"});
  other->record(0, 0.5, true);
  scorer.setSource(other);
  st = scorer.status(t0 + seconds(120));
  EXPECT_EQ(st.clusters[0].windowCount, 1u);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: drift through the serve path

TEST(ModelPlane, ServedTrafficShiftFlipsDriftWhileSteadyReplayDoesNot) {
  // Freeze the baseline from one served pass over the fixture layout.
  // (Caches are disabled throughout: a cache hit never reaches the SVM,
  // so a warm replay would otherwise record nothing.)
  const auto serveOnce = [](const Layout& layout)
      -> std::pair<std::shared_ptr<ModelStatsRecorder>, std::string> {
    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.threadsPerContext = 2;
    cfg.enableCache = false;
    cfg.modelStats =
        std::make_shared<ModelStatsRecorder>(fx().detector.clusterNames());
    serve::DetectionServer server(cfg);
    const serve::ServeResult r =
        server.submit(fx().detector, layout, core::EvalParams{}).get();
    EXPECT_EQ(r.status, serve::RequestStatus::kOk) << toString(r.status);
    return {cfg.modelStats, tests::canonicalReport(r.result)};
  };

  const auto [refRec, refReport] = serveOnce(fx().test.layout);
  EXPECT_EQ(refReport, bareReport());  // plane-on serving stays exact
  const ModelBaseline base = baselineFromSnapshot(refRec->snapshot());

  DriftConfig cfg;
  cfg.minWindowCount = 1;

  // Steady replay of the identical layout: every scored cluster stays
  // under the threshold.
  const auto [steadyRec, steadyReport] = serveOnce(fx().test.layout);
  EXPECT_EQ(steadyReport, refReport);
  DriftScorer steady(base, cfg);
  steady.setSource(steadyRec);
  const DriftScorer::Status steadyStatus = steady.status();
  EXPECT_FALSE(steadyStatus.anyDrifted);
  std::uint64_t steadyScored = 0;
  for (const DriftScorer::ClusterStatus& c : steadyStatus.clusters) {
    if (!c.scored) continue;
    ++steadyScored;
    EXPECT_LT(c.psi, cfg.psiThreshold) << c.name;
  }
  EXPECT_GT(steadyScored, 0u);

  // The injected shift: the same design scaled 1.3x in both axes. Every
  // width and spacing moves, live margins no longer look like the
  // baseline, and at least one cluster's PSI flips past the threshold.
  const Layout shifted = scaledLayout(fx().test.layout, 13, 10);
  const auto [shiftRec, shiftReport] = serveOnce(shifted);
  (void)shiftReport;
  DriftScorer drifted(base, cfg);
  drifted.setSource(shiftRec);
  const DriftScorer::Status shiftStatus = drifted.status();
  EXPECT_TRUE(shiftStatus.anyDrifted);
  double maxPsi = 0.0;
  for (const DriftScorer::ClusterStatus& c : shiftStatus.clusters)
    if (c.scored) maxPsi = std::max(maxPsi, c.psi);
  EXPECT_GT(maxPsi, cfg.psiThreshold);
}

// ---------------------------------------------------------------------------
// Admin surfacing: /modelz, /statsz model section, /readyz?degraded

TEST(ModelPlane, AdminModelzServesSketchesDriftAndStrictParams) {
  ModelStatsRecorder::Options opts;
  opts.modelFingerprint = 0x0123456789abcdefULL;
  auto rec = std::make_shared<ModelStatsRecorder>(
      std::vector<std::string>{"alpha", "beta"}, opts);
  rec->record(0, 2.0, true);
  rec->record(1, -2.0, false);
  ModelStatsRecorder ref({"alpha", "beta"});
  ref.record(0, 2.0, true);
  ref.record(1, -2.0, false);
  auto drift = std::make_shared<DriftScorer>(
      baselineFromSnapshot(ref.snapshot()));
  drift->setSource(rec);

  AdminServer admin;
  admin.setModelStats(rec);
  admin.setDrift(drift);
  admin.start();

  const net::HttpResult res =
      net::httpGet("127.0.0.1", admin.port(), "/modelz");
  EXPECT_EQ(res.status, 200);
  EXPECT_TRUE(parsesAsJson(res.body)) << res.body;
  EXPECT_NE(res.body.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(res.body.find("\"alpha\""), std::string::npos);
  EXPECT_NE(res.body.find("\"psiThreshold\""), std::string::npos);
  // The model's identity leads the model section (16 hex digits, zero
  // padded); a recorder without a fingerprint omits the field.
  EXPECT_NE(res.body.find("\"model\": {\"fingerprint\": \"0123456789abcdef\", "
                          "\"clusters\""),
            std::string::npos)
      << res.body;
  EXPECT_EQ(ref.toJson().find("fingerprint"), std::string::npos);

  // Cluster filter narrows the view; strict parsers reject junk.
  const net::HttpResult beta =
      net::httpGet("127.0.0.1", admin.port(), "/modelz?cluster=beta");
  EXPECT_EQ(beta.status, 200);
  // The filter narrows the model section only; the drift section that
  // follows always reports every cluster.
  const std::string modelPart = beta.body.substr(0, beta.body.find("\"drift\""));
  EXPECT_EQ(modelPart.find("\"alpha\""), std::string::npos) << beta.body;
  EXPECT_NE(modelPart.find("\"beta\""), std::string::npos);
  EXPECT_EQ(
      net::httpGet("127.0.0.1", admin.port(), "/modelz?cluster=nope").status,
      400);
  EXPECT_EQ(
      net::httpGet("127.0.0.1", admin.port(), "/modelz?limit=abc").status,
      400);
  EXPECT_EQ(net::httpGet("127.0.0.1", admin.port(), "/modelz?limit=2").status,
            200);

  // /statsz carries the model section; /readyz?degraded the drift state.
  const net::HttpResult statsz =
      net::httpGet("127.0.0.1", admin.port(), "/statsz");
  EXPECT_TRUE(parsesAsJson(statsz.body)) << statsz.body;
  EXPECT_NE(statsz.body.find("\"model\""), std::string::npos);
  EXPECT_NE(statsz.body.find("\"modelDrift\""), std::string::npos);
  const net::HttpResult ready =
      net::httpGet("127.0.0.1", admin.port(), "/readyz?degraded");
  EXPECT_EQ(ready.status, 200);
  EXPECT_TRUE(parsesAsJson(ready.body)) << ready.body;
  EXPECT_NE(ready.body.find("\"modelDrift\""), std::string::npos);
  EXPECT_NE(ready.body.find("\"degraded\": false"), std::string::npos);
}

TEST(ModelPlane, AdminWithoutRecorderReportsDisabledAndDriftFlipsDegraded) {
  {
    AdminServer bare;
    bare.start();
    const net::HttpResult off =
        net::httpGet("127.0.0.1", bare.port(), "/modelz");
    EXPECT_EQ(off.status, 200);
    EXPECT_EQ(off.body, "{\"enabled\": false}\n");
    // No drift mounted: the degraded view has no modelDrift section.
    const net::HttpResult ready =
        net::httpGet("127.0.0.1", bare.port(), "/readyz?degraded");
    EXPECT_EQ(ready.body.find("\"modelDrift\""), std::string::npos);
  }
  // A drifted source flips /readyz?degraded while readiness stays 200:
  // degraded-not-dead, same contract as the SLO burn.
  ModelStatsRecorder ref({"a"});
  for (int i = 0; i < 100; ++i) ref.record(0, 0.5, true);
  auto live = std::make_shared<ModelStatsRecorder>(
      std::vector<std::string>{"a"});
  for (int i = 0; i < 100; ++i) live->record(0, -64.0, false);
  DriftConfig cfg;
  cfg.minWindowCount = 1;
  auto drift = std::make_shared<DriftScorer>(
      baselineFromSnapshot(ref.snapshot()), cfg);
  drift->setSource(live);
  AdminServer admin;
  admin.setModelStats(live);
  admin.setDrift(drift);
  admin.start();
  const net::HttpResult ready =
      net::httpGet("127.0.0.1", admin.port(), "/readyz?degraded");
  EXPECT_EQ(ready.status, 200);
  EXPECT_TRUE(parsesAsJson(ready.body)) << ready.body;
  EXPECT_NE(ready.body.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(ready.body.find("\"drifted\": true"), std::string::npos);
}

}  // namespace
}  // namespace hsd::obs
