// Trainer tests: shift derivatives, population balancing, multi-kernel
// learning, feedback kernel, detector persistence, and learning sanity
// (detects what it was trained on, generalizes to unseen variants).
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "common.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"

namespace hsd::core {
namespace {

using tests::lineClip;
using tests::lineTrainingSet;

TEST(ShiftDerivatives, FourWayPlusOriginal) {
  const Clip c = lineClip(100, Label::kHotspot);
  const auto d = shiftDerivatives(c, 120);
  ASSERT_EQ(d.size(), 5u);
  EXPECT_EQ(d[0].window(), c.window());
  // Derivative windows are shifted; geometry stays in place.
  EXPECT_EQ(d[1].window().core.lo, Point(1920, 1800));
  EXPECT_EQ(d[1].rectsOn(1), c.rectsOn(1));
  // Zero shift degenerates to just the original.
  EXPECT_EQ(shiftDerivatives(c, 0).size(), 1u);
}

TEST(Trainer, ThrowsWithoutBothClasses) {
  std::vector<Clip> onlyHs{lineClip(100, Label::kHotspot)};
  engine::RunContext ctx(1);
  EXPECT_THROW(trainDetector(onlyHs, {}, ctx), std::invalid_argument);
}

TEST(Trainer, LearnsWidthBoundary) {
  TrainParams tp;
  engine::RunContext ctx(1);
  const Detector det = trainDetector(lineTrainingSet(), tp, ctx);
  EXPECT_GE(det.kernels.size(), 1u);
  EXPECT_GT(det.stats.upsampledHotspots, det.stats.rawHotspots);

  // Training-like patterns classify correctly.
  EXPECT_TRUE(det.evaluateClip(lineClip(100, Label::kUnknown)));
  EXPECT_FALSE(det.evaluateClip(lineClip(220, Label::kUnknown)));
  // Unseen jitter positions generalize (the fuzziness property).
  EXPECT_TRUE(det.evaluateClip(lineClip(104, Label::kUnknown, 57)));
}

TEST(Trainer, StatsArePopulated) {
  engine::RunContext ctx(1);
  const Detector det = trainDetector(lineTrainingSet(), {}, ctx);
  EXPECT_EQ(det.stats.rawHotspots, 12u);
  EXPECT_EQ(det.stats.rawNonHotspots, 40u);
  EXPECT_EQ(det.stats.upsampledHotspots, 60u);
  EXPECT_GE(det.stats.hotspotClusters, 1u);
  EXPECT_LE(det.stats.balancedNonHotspots, 40u);
  EXPECT_GT(det.stats.trainSeconds, 0.0);
}

TEST(Trainer, ShiftDisabledKeepsRawCount) {
  TrainParams tp;
  tp.enableShift = false;
  engine::RunContext ctx(1);
  const Detector det = trainDetector(lineTrainingSet(), tp, ctx);
  EXPECT_EQ(det.stats.upsampledHotspots, det.stats.rawHotspots);
}

TEST(Trainer, BalancingOffUsesAllNonHotspots) {
  TrainParams tp;
  tp.balancePopulation = false;
  engine::RunContext ctx(1);
  const Detector det = trainDetector(lineTrainingSet(), tp, ctx);
  EXPECT_EQ(det.stats.balancedNonHotspots, 40u);
}

TEST(Trainer, DecisionValueOrdersByRisk) {
  engine::RunContext ctx(1);
  const Detector det = trainDetector(lineTrainingSet(), {}, ctx);
  const double risky =
      det.decisionValue(CorePattern::fromCore(lineClip(100, Label::kUnknown), 1));
  const double safe =
      det.decisionValue(CorePattern::fromCore(lineClip(220, Label::kUnknown), 1));
  EXPECT_GT(risky, safe);
}

TEST(Trainer, BiasTradesRecallForPrecision) {
  engine::RunContext ctx(1);
  const Detector det = trainDetector(lineTrainingSet(), {}, ctx);
  // With a huge positive bias nothing is flagged.
  EXPECT_FALSE(det.evaluateClip(lineClip(100, Label::kUnknown), 1e6));
  // With a huge negative bias everything is flagged (before feedback).
  EXPECT_TRUE(det.evaluateCore(
      CorePattern::fromCore(lineClip(220, Label::kUnknown), 1), -1e6));
}

TEST(Trainer, SaveLoadRoundTrip) {
  engine::RunContext ctx(1);
  const Detector det = trainDetector(lineTrainingSet(), {}, ctx);
  std::stringstream ss;
  det.save(ss);
  const Detector back = Detector::load(ss);
  ASSERT_EQ(back.kernels.size(), det.kernels.size());
  EXPECT_EQ(back.fingerprint(), det.fingerprint());
  EXPECT_EQ(back.hasFeedback, det.hasFeedback);
  EXPECT_EQ(back.params.clip, det.params.clip);
  EXPECT_EQ(back.params.layer, det.params.layer);
  // Decisions identical after reload.
  for (const Coord w : {90, 120, 160, 200, 240}) {
    const Clip probe = lineClip(w, Label::kUnknown, 33);
    EXPECT_EQ(back.evaluateClip(probe), det.evaluateClip(probe)) << w;
  }
}

TEST(Trainer, LoadRejectsGarbage) {
  std::stringstream ss("garbage");
  EXPECT_THROW(Detector::load(ss), std::runtime_error);
}

// Hostile model files: a count the file never backs with data must fail
// typed, not by sizing a container from it (std::bad_alloc). Line layout
// of a saved model: header, clip sides, two FeatureParams lines, kernel
// count, then per kernel a "kernel" line, the scaler (dim, mins, maxs)
// and the SVM model (header, gamma, rho, "nsv N dim D", ...); the drift
// baseline ("baseline <clusters> <buckets>", ...) comes last.

/// hostileModel()'s line number for the "baseline ..." header line.
constexpr std::size_t kBaselineLine = std::size_t(-1);

/// The saved text of a detector trained on the line set, with line
/// `lineNo` (0-based, or kBaselineLine) swapped for `replacement`.
std::string hostileModel(std::size_t lineNo, const std::string& replacement) {
  engine::RunContext ctx(1);
  std::stringstream saved;
  trainDetector(lineTrainingSet(), {}, ctx).save(saved);
  std::string out;
  std::string line;
  for (std::size_t i = 0; std::getline(saved, line); ++i) {
    if (i == lineNo ||
        (lineNo == kBaselineLine && line.starts_with("baseline ")))
      line = replacement;
    out += line + '\n';
  }
  return out;
}

void expectTypedLoadFailure(const std::string& model) {
  std::stringstream ss(model);
  EXPECT_THROW(Detector::load(ss), std::runtime_error);
}

TEST(Trainer, LoadRejectsHostileKernelCount) {
  expectTypedLoadFailure(hostileModel(4, "99999999999999"));
}

TEST(Trainer, LoadRejectsHostileScalerDim) {
  expectTypedLoadFailure(hostileModel(6, "99999999999"));
}

TEST(Trainer, LoadRejectsHostileSupportVectorCount) {
  expectTypedLoadFailure(hostileModel(12, "nsv 3000000000 dim 3000000000"));
}

TEST(Trainer, LoadRejectsHostileBaselineClusterCount) {
  expectTypedLoadFailure(hostileModel(
      kBaselineLine, "baseline 99999999999999 " +
                         std::to_string(obs::MarginSketch::kNumBuckets)));
}

TEST(Trainer, FeedbackKernelTrainsOnOracleLabeledData) {
  // On a realistic generated set the self-evaluation usually finds extras;
  // verify the feedback path runs and the detector still works.
  data::GeneratorParams gp;
  gp.seed = 19;
  data::TrainingTargets t;
  t.hotspots = 25;
  t.nonHotspots = 100;
  const auto set = data::generateTrainingSet(gp, t);
  TrainParams tp;
  engine::RunContext ctx(1);
  const Detector det = trainDetector(set.clips, tp, ctx);
  EXPECT_GE(det.kernels.size(), 1u);
  // Self-consistency: most hotspot training clips are detected.
  std::size_t hit = 0, hs = 0;
  for (const Clip& c : set.clips) {
    if (c.label() != Label::kHotspot) continue;
    ++hs;
    hit += det.evaluateClip(c) ? 1 : 0;
  }
  EXPECT_GE(double(hit) / double(hs), 0.8);
}

TEST(Trainer, MultithreadMatchesSingleThread) {
  engine::RunContext ctx1(1);
  engine::RunContext ctx4(4);
  const Detector a = trainDetector(lineTrainingSet(), {}, ctx1);
  const Detector b = trainDetector(lineTrainingSet(), {}, ctx4);
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (const Coord w : {95, 130, 180, 230}) {
    const Clip probe = lineClip(w, Label::kUnknown, -41);
    EXPECT_EQ(a.evaluateClip(probe), b.evaluateClip(probe)) << w;
  }
}

}  // namespace
}  // namespace hsd::core
