// End-to-end integration tests: train on a generated set, evaluate a
// generated layout, score; checks the paper's qualitative claims (decent
// accuracy, removal reduces reports without losing hits, feedback reduces
// extras, bias trades accuracy for extras).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "core/metrics.hpp"
#include "core/scorer.hpp"
#include "data/generator.hpp"
#include "obs/model_stats.hpp"

namespace hsd::core {
namespace {

using Fixture = tests::DetectorFixture;

const Fixture& fixture() {
  return tests::detectorFixture({.seed = 2024,
                                 .hotspots = 40,
                                 .nonHotspots = 160,
                                 .width = 36000,
                                 .height = 36000,
                                 .sites = 25});
}

TEST(Evaluator, EndToEndAccuracy) {
  const Fixture& f = fixture();
  ASSERT_GE(f.test.actualHotspots.size(), 3u);
  engine::RunContext ctx(1);
  const EvalResult res = evaluateLayout(f.detector, f.test.layout, {}, ctx);
  const Score s = scoreReports(res.reported, f.test.actualHotspots);
  // The paper reports 85-98% accuracy; demand a solid floor here.
  EXPECT_GE(s.accuracy(), 0.7)
      << s.hits << "/" << s.actualHotspots << " extras=" << s.extras;
  EXPECT_GT(res.candidateClips, 0u);
}

TEST(Evaluator, RemovalReducesReportsKeepsHits) {
  const Fixture& f = fixture();
  EvalParams with;
  EvalParams without = with;
  without.useRemoval = false;
  engine::RunContext ctx(1);
  const EvalResult a = evaluateLayout(f.detector, f.test.layout, with, ctx);
  const EvalResult b =
      evaluateLayout(f.detector, f.test.layout, without, ctx);
  const Score sa = scoreReports(a.reported, f.test.actualHotspots);
  const Score sb = scoreReports(b.reported, f.test.actualHotspots);
  EXPECT_LE(a.reported.size(), b.reported.size());
  EXPECT_GE(sa.hits + 1, sb.hits);  // at most one borderline hit lost
}

TEST(Evaluator, BiasSweepIsMonotoneInReports) {
  const Fixture& f = fixture();
  std::size_t last = std::size_t(-1);
  engine::RunContext ctx(1);
  for (const double bias : {-0.5, 0.0, 0.5, 2.0}) {
    EvalParams ep;
    ep.decisionBias = bias;
    ep.useRemoval = false;
    const EvalResult res = evaluateLayout(f.detector, f.test.layout, ep, ctx);
    EXPECT_LE(res.flaggedBeforeRemoval, last);
    last = res.flaggedBeforeRemoval;
  }
}

TEST(Evaluator, EmptyLayoutYieldsNothing) {
  const Fixture& f = fixture();
  const Layout empty;
  engine::RunContext ctx(1);
  const EvalResult res = evaluateLayout(f.detector, empty, {}, ctx);
  EXPECT_TRUE(res.reported.empty());
  EXPECT_EQ(res.candidateClips, 0u);
}

TEST(Evaluator, ThreadedEvaluationMatchesSerial) {
  const Fixture& f = fixture();
  engine::RunContext ctx1(1);
  engine::RunContext ctx4(4);
  const EvalResult a = evaluateLayout(f.detector, f.test.layout, {}, ctx1);
  const EvalResult b = evaluateLayout(f.detector, f.test.layout, {}, ctx4);
  EXPECT_EQ(a.reported, b.reported);
}

TEST(Evaluator, CandidateReuseMatchesFullRun) {
  const Fixture& f = fixture();
  const Layer* l = f.test.layout.findLayer(1);
  ASSERT_NE(l, nullptr);
  EvalParams ep;
  engine::RunContext ctx(1);
  const GridIndex index(l->rects(), ep.extract.clip.clipSide);
  const auto candidates = extractCandidateClips(index, ep.extract, ctx);
  const EvalResult viaCandidates =
      evaluateCandidates(f.detector, index, candidates, ep, ctx);
  const EvalResult full = evaluateLayout(f.detector, f.test.layout, ep, ctx);
  EXPECT_EQ(viaCandidates.reported, full.reported);
}

TEST(Evaluator, RankedReportsSortedAndComplete) {
  const Fixture& f = fixture();
  const Layer* l = f.test.layout.findLayer(1);
  ASSERT_NE(l, nullptr);
  const GridIndex idx(l->rects(), 4800);
  engine::RunContext ctx(1);
  const EvalResult res = evaluateLayout(f.detector, f.test.layout, {}, ctx);
  const auto ranked = rankReports(f.detector, idx, res.reported, ctx);
  ASSERT_EQ(ranked.size(), res.reported.size());
  for (std::size_t i = 0; i + 1 < ranked.size(); ++i)
    EXPECT_GE(ranked[i].probability, ranked[i + 1].probability);
  // Ties keep the report order. A window can be reported twice; its
  // k-th ranked occurrence is its k-th reported one.
  std::map<ClipWindow, std::vector<std::size_t>> at;
  for (std::size_t i = res.reported.size(); i-- > 0;)
    at[res.reported[i]].push_back(i);
  std::vector<std::size_t> index;
  for (const RankedReport& r : ranked) {
    std::vector<std::size_t>& left = at[r.window];
    ASSERT_FALSE(left.empty());
    index.push_back(left.back());
    left.pop_back();
  }
  std::size_t ties = 0;
  for (std::size_t i = 0; i + 1 < ranked.size(); ++i)
    if (ranked[i].probability == ranked[i + 1].probability) {
      ++ties;
      EXPECT_LT(index[i], index[i + 1]) << "rank " << i;
    }
  EXPECT_GT(ties, 0u);  // repeated patterns score the same
  for (const auto& r : ranked) {
    EXPECT_GE(r.probability, 0.0);
    EXPECT_LE(r.probability, 1.0);
  }
}

TEST(Evaluator, WindowScanFindsAtLeastAsManyHits) {
  // Full scanning is the slow superset of extraction: it must not miss
  // hotspots that extraction-based evaluation finds.
  const Fixture& f = fixture();
  EvalParams ep;
  engine::RunContext ctx(1);
  const EvalResult fast = evaluateLayout(f.detector, f.test.layout, ep, ctx);
  const EvalResult scan =
      evaluateLayoutWindowScan(f.detector, f.test.layout, ep, ctx, 0.5);
  const Score sf = scoreReports(fast.reported, f.test.actualHotspots);
  const Score ss = scoreReports(scan.reported, f.test.actualHotspots);
  EXPECT_GE(ss.hits + 1, sf.hits);  // allow one boundary-alignment wobble
  EXPECT_GT(scan.candidateClips, fast.candidateClips);
}

TEST(Evaluator, DetectorPersistenceKeepsResults) {
  const Fixture& f = fixture();
  std::stringstream ss;
  f.detector.save(ss);
  const Detector re = Detector::load(ss);
  EvalParams ep;
  engine::RunContext ctx(1);
  const EvalResult a = evaluateLayout(f.detector, f.test.layout, ep, ctx);
  const EvalResult b = evaluateLayout(re, f.test.layout, ep, ctx);
  EXPECT_EQ(a.reported, b.reported);
}

// ---------------------------------------------------------------------------
// Kernel-major scorer == the plain per-kernel decision loop it replaced.

/// One (clip, kernel) decision the pre-batching way: allocating scale,
/// then the naive per-SV rbfKernel sum minus rho.
double plainDecision(const KernelEntry& k, const svm::FeatureVector& feat) {
  const svm::FeatureVector x = k.scaler.transform(feat);
  const svm::SvmModel& m = k.model;
  double s = 0;
  for (std::size_t i = 0; i < m.supportVectorCount(); ++i)
    s += m.coefficients()[i] *
         svm::rbfKernel(m.supportVector(i).vector(), x, m.gamma());
  return s - m.rho();
}

/// The eval/svm loop as it was: first flagging kernel wins; an unflagged
/// clip is attributed to kernel 0, then to any strictly larger value.
KernelScore plainFirstFlag(const Detector& det,
                           const svm::FeatureVector& feat, double bias) {
  KernelScore r;
  for (std::size_t k = 0; k < det.kernels.size(); ++k) {
    const double d = plainDecision(det.kernels[k], feat);
    if (d > bias) return {true, k, d};
    if (k == 0 || d > r.decision) {
      r.kernel = k;
      r.decision = d;
    }
  }
  return r;
}

/// decisionValue() as it was: std::max over every kernel.
double plainMax(const Detector& det, const svm::FeatureVector& feat) {
  double best = -std::numeric_limits<double>::infinity();
  for (const KernelEntry& k : det.kernels)
    best = std::max(best, plainDecision(k, feat));
  return best;
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct ScoredCandidates {
  GridIndex index;
  std::vector<ClipWindow> windows;
  std::vector<svm::FeatureVector> feats;
};

const ScoredCandidates& candidates() {
  static const ScoredCandidates c = [] {
    const Fixture& f = fixture();
    const EvalParams ep;
    ScoredCandidates out{
        GridIndex(f.test.layout.findLayer(1)->rects(),
                  ep.extract.clip.clipSide),
        {},
        {}};
    engine::RunContext ctx(1);
    out.windows = extractCandidateClips(out.index, ep.extract, ctx);
    const std::vector<std::pair<LayerId, const GridIndex*>> layers{
        {f.detector.params.layer, &out.index}};
    for (const ClipWindow& w : out.windows)
      out.feats.push_back(buildFeatureVector(
          CorePattern::fromCore(extractClip(layers, w),
                                f.detector.params.layer),
          f.detector.params.features));
    return out;
  }();
  return c;
}

TEST(Scorer, MatchesThePlainPerKernelLoopAtEveryChunking) {
  const Detector& det = fixture().detector;
  const ScoredCandidates& c = candidates();
  ASSERT_GT(c.feats.size(), 100u);
  ASSERT_GT(det.kernels.size(), 1u);
  std::vector<const svm::FeatureVector*> rows;
  for (const svm::FeatureVector& f : c.feats) rows.push_back(&f);
  for (const double bias : {0.0, 0.5}) {
    std::vector<KernelScore> want(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
      want[i] = plainFirstFlag(det, c.feats[i], bias);
    // Serial chunks of 1, 7 and 512 clips, and the pooled scorer at 1
    // and 4 threads: chunking must never change a bit.
    for (const std::size_t chunk : {1u, 7u, 512u}) {
      std::vector<KernelScore> got(rows.size());
      for (std::size_t first = 0; first < rows.size(); first += chunk) {
        const std::size_t len = std::min(chunk, rows.size() - first);
        scoreKernels(det.kernels, std::span(rows).subspan(first, len),
                     ScoreMode::kFirstFlag, bias,
                     std::span(got).subspan(first, len));
      }
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(got[i].flagged, want[i].flagged) << "chunk " << chunk << " clip " << i;
        ASSERT_EQ(got[i].kernel, want[i].kernel) << "chunk " << chunk << " clip " << i;
        ASSERT_TRUE(sameBits(got[i].decision, want[i].decision))
            << "chunk " << chunk << " clip " << i;
      }
    }
    for (const std::size_t threads : {1u, 4u}) {
      engine::RunContext ctx(threads);
      const std::vector<KernelScore> got =
          scoreKernels(ctx, det.kernels, rows, ScoreMode::kFirstFlag, bias);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(got[i].flagged, want[i].flagged) << "threads " << threads;
        ASSERT_EQ(got[i].kernel, want[i].kernel) << "threads " << threads;
        ASSERT_TRUE(sameBits(got[i].decision, want[i].decision))
            << "threads " << threads << " clip " << i;
      }
    }
  }
  // kMax: the std::max fold of every kernel, as decisionValue() was.
  engine::RunContext ctx(4);
  const std::vector<KernelScore> got =
      scoreKernels(ctx, det.kernels, rows, ScoreMode::kMax);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double want = plainMax(det, c.feats[i]);
    ASSERT_TRUE(sameBits(got[i].decision, want)) << "clip " << i;
    ASSERT_TRUE(sameBits(det.decisionValue(CorePattern::fromCore(
                             extractClip({{1, &c.index}}, c.windows[i]), 1)),
                         want))
        << "clip " << i;
  }
}

TEST(Scorer, DuplicateRowsScoreLikeThePlainLoop) {
  // The pooled scorer scores each bitwise-distinct row once and copies its
  // score to the rows that repeat it. Every output row must still be the
  // plain loop's verdict for that row's own bits.
  const Detector& det = fixture().detector;
  const ScoredCandidates& c = candidates();
  const svm::FeatureVector& a = c.feats[0];
  // Stable addresses for the rows built here.
  std::deque<svm::FeatureVector> store;
  const auto keep = [&store](svm::FeatureVector v) {
    store.push_back(std::move(v));
    return &store.back();
  };
  const auto with = [&a](std::size_t i, double v) {
    svm::FeatureVector out = a;
    out[i] = v;
    return out;
  };
  const svm::FeatureVector* const copyA = keep(a);
  const svm::FeatureVector* const posZero = keep(with(3, 0.0));
  const svm::FeatureVector* const negZero = keep(with(3, -0.0));
  const svm::FeatureVector* const nan1 =
      keep(with(3, std::bit_cast<double>(std::uint64_t{0x7ff8000000000001})));
  const svm::FeatureVector* const nan2 =
      keep(with(3, std::bit_cast<double>(std::uint64_t{0x7ff8000000000002})));

  std::vector<std::pair<const char*, std::vector<const svm::FeatureVector*>>>
      cases;
  cases.push_back({"same pointer", {&a, &c.feats[1], &a, &a, &c.feats[1]}});
  {
    // Every candidate, then a separately stored copy of each in reverse:
    // many distinct rows across several chunks, each seen twice.
    std::vector<const svm::FeatureVector*> rows;
    for (const svm::FeatureVector& f : c.feats) rows.push_back(&f);
    for (auto it = c.feats.rbegin(); it != c.feats.rend(); ++it)
      rows.push_back(keep(*it));
    cases.push_back({"equal copies", std::move(rows)});
  }
  cases.push_back({"signed zero", {posZero, negZero, negZero, posZero}});
  cases.push_back({"nan payload", {nan1, nan2, nan1, &a, nan2}});
  {
    std::vector<const svm::FeatureVector*> rows;
    for (std::size_t i = 0; i < 70; ++i) rows.push_back(i % 2 ? &a : copyA);
    cases.push_back({"all the same", std::move(rows)});
  }
  {
    std::set<std::string> seen;
    std::vector<const svm::FeatureVector*> rows;
    for (const svm::FeatureVector& f : c.feats)
      if (seen.emplace(reinterpret_cast<const char*>(f.data()),
                       f.size() * sizeof(double))
              .second)
        rows.push_back(&f);
    ASSERT_GT(rows.size(), kScoreChunk);
    cases.push_back({"no duplicates", std::move(rows)});
  }

  for (const auto& [name, rows] : cases) {
    std::vector<KernelScore> wantFirst;
    std::vector<double> wantMax;
    for (const svm::FeatureVector* r : rows) {
      wantFirst.push_back(plainFirstFlag(det, *r, 0.0));
      wantMax.push_back(plainMax(det, *r));
    }
    for (const std::size_t threads : {1u, 4u}) {
      engine::RunContext ctx(threads);
      const std::vector<KernelScore> first =
          scoreKernels(ctx, det.kernels, rows, ScoreMode::kFirstFlag);
      const std::vector<KernelScore> max =
          scoreKernels(ctx, det.kernels, rows, ScoreMode::kMax);
      ASSERT_EQ(first.size(), rows.size());
      ASSERT_EQ(max.size(), rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(first[i].flagged, wantFirst[i].flagged)
            << name << " threads " << threads << " row " << i;
        ASSERT_EQ(first[i].kernel, wantFirst[i].kernel)
            << name << " threads " << threads << " row " << i;
        ASSERT_TRUE(sameBits(first[i].decision, wantFirst[i].decision))
            << name << " threads " << threads << " row " << i;
        ASSERT_TRUE(sameBits(max[i].decision, wantMax[i]))
            << name << " threads " << threads << " row " << i;
        ASSERT_EQ(max[i].flagged, wantMax[i] > 0.0)
            << name << " threads " << threads << " row " << i;
      }
    }
  }

  // A row of the wrong dimension still throws when it repeats.
  const svm::FeatureVector shortRow(a.begin(), a.end() - 1);
  const std::vector<const svm::FeatureVector*> bad{&a, &shortRow, &a,
                                                   &shortRow};
  for (const std::size_t threads : {1u, 4u}) {
    engine::RunContext ctx(threads);
    for (const ScoreMode mode : {ScoreMode::kFirstFlag, ScoreMode::kMax})
      EXPECT_THROW(scoreKernels(ctx, det.kernels, bad, mode),
                   std::invalid_argument)
          << "threads " << threads;
  }
}

TEST(Scorer, EvalSvmStageMatchesThePlainLoopWithRecorderAttached) {
  // Feedback and removal off: eval/svm's verdicts are then the report,
  // and the recorder sees only eval/svm's (kernel, margin, verdict).
  const Fixture& f = fixture();
  const Detector& det = f.detector;
  const ScoredCandidates& c = candidates();
  // Capture off: the comparison is over the margin sketches and verdict
  // counts (per-thread capture rings would drop differently).
  obs::ModelStatsRecorder::Options opts;
  opts.captureWidth = 0;
  obs::ModelStatsRecorder ref(det.clusterNames(), opts);
  std::vector<ClipWindow> wantReport;
  for (std::size_t i = 0; i < c.feats.size(); ++i) {
    const KernelScore s = plainFirstFlag(det, c.feats[i], 0.0);
    ref.record(s.kernel, s.decision, s.flagged);
    if (s.flagged) wantReport.push_back(c.windows[i]);
  }
  EvalParams ep;
  ep.useFeedback = false;
  ep.useRemoval = false;
  for (const std::size_t threads : {1u, 4u}) {
    for (const std::size_t batch : {1u, 7u, 512u}) {
      engine::RunContext ctx(threads);
      ctx.setBatchSize(batch);
      auto rec =
          std::make_shared<obs::ModelStatsRecorder>(det.clusterNames(), opts);
      ctx.attachModelStats(rec);
      const EvalResult res = evaluateLayout(det, f.test.layout, ep, ctx);
      EXPECT_EQ(res.reported, wantReport)
          << "threads " << threads << " batch " << batch;
      EXPECT_EQ(rec->toJson(0), ref.toJson(0))
          << "threads " << threads << " batch " << batch;
    }
  }
}

TEST(Scorer, RankProbabilitiesMatchHotspotProbabilityBitForBit) {
  const Fixture& f = fixture();
  const Detector& det = f.detector;
  const ScoredCandidates& c = candidates();
  engine::RunContext serial(1);
  const EvalResult res = evaluateLayout(det, f.test.layout, {}, serial);
  ASSERT_FALSE(res.reported.empty());
  const std::vector<std::pair<LayerId, const GridIndex*>> layers{
      {det.params.layer, &c.index}};
  for (const std::size_t threads : {1u, 4u}) {
    engine::RunContext ctx(threads);
    const std::vector<RankedReport> ranked =
        rankReports(det, c.index, res.reported, ctx);
    ASSERT_EQ(ranked.size(), res.reported.size());
    for (const RankedReport& r : ranked) {
      const CorePattern core =
          CorePattern::fromCore(extractClip(layers, r.window), det.params.layer);
      const double want = det.probabilityOf(
          plainMax(det, buildFeatureVector(core, det.params.features)));
      EXPECT_TRUE(sameBits(r.probability, want));
      EXPECT_TRUE(sameBits(r.probability, det.hotspotProbability(core)));
    }
  }
}

}  // namespace
}  // namespace hsd::core
