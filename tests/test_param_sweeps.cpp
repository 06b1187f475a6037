// Parameterized sweeps over the framework's main knobs: every
// configuration must keep the pipeline's invariants (determinism,
// monotone bias behavior, score sanity) even where quality varies.
#include <gtest/gtest.h>

#include <tuple>

#include "core/evaluator.hpp"
#include "core/metrics.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"

namespace hsd::core {
namespace {

struct SweepFixture {
  gds::ClipSet training;
  data::TestLayout test;
};

const SweepFixture& fixture() {
  static const SweepFixture f = [] {
    SweepFixture out;
    data::GeneratorParams gp;
    gp.seed = 777;
    data::TrainingTargets t;
    t.hotspots = 25;
    t.nonHotspots = 100;
    out.training = data::generateTrainingSet(gp, t);
    out.test = data::generateTestLayout(gp, 26000, 26000, 14, 0.6);
    return out;
  }();
  return f;
}

// (enableShift, balancePopulation, enableFeedback, singleKernel)
using Knobs = std::tuple<bool, bool, bool, bool>;

class TrainerKnobs : public ::testing::TestWithParam<Knobs> {};

TEST_P(TrainerKnobs, PipelineRunsAndScores) {
  const auto [shift, balance, feedback, single] = GetParam();
  TrainParams tp;
  tp.enableShift = shift;
  tp.balancePopulation = balance;
  tp.enableFeedback = feedback;
  tp.singleKernel = single;
  engine::RunContext ctx(1);
  const Detector det = trainDetector(fixture().training.clips, tp, ctx);
  EXPECT_GE(det.kernels.size(), 1u);
  if (single) {
    EXPECT_EQ(det.kernels.size(), 1u);
  }

  const EvalResult res = evaluateLayout(det, fixture().test.layout, {}, ctx);
  const Score s = scoreReports(res.reported, fixture().test.actualHotspots);
  // Sanity, not quality: scoring identities hold in every configuration.
  EXPECT_LE(s.hits, s.actualHotspots);
  EXPECT_EQ(s.reports, res.reported.size());
  EXPECT_LE(s.extras, s.reports);
}

TEST_P(TrainerKnobs, TrainingIsDeterministic) {
  const auto [shift, balance, feedback, single] = GetParam();
  TrainParams tp;
  tp.enableShift = shift;
  tp.balancePopulation = balance;
  tp.enableFeedback = feedback;
  tp.singleKernel = single;
  engine::RunContext ctx(1);
  const Detector a = trainDetector(fixture().training.clips, tp, ctx);
  const Detector b = trainDetector(fixture().training.clips, tp, ctx);
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  const Clip& probe = fixture().training.clips.front();
  EXPECT_EQ(a.evaluateClip(probe), b.evaluateClip(probe));
  EXPECT_DOUBLE_EQ(a.decisionValue(CorePattern::fromCore(probe, 1)),
                   b.decisionValue(CorePattern::fromCore(probe, 1)));
}

std::string knobName(const ::testing::TestParamInfo<Knobs>& info) {
  std::string name;
  name += std::get<0>(info.param) ? "Shift" : "NoShift";
  name += std::get<1>(info.param) ? "Bal" : "NoBal";
  name += std::get<2>(info.param) ? "Fb" : "NoFb";
  name += std::get<3>(info.param) ? "Single" : "Multi";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    KnobMatrix, TrainerKnobs,
    ::testing::Values(Knobs{true, true, true, false},
                      Knobs{false, true, true, false},
                      Knobs{true, false, true, false},
                      Knobs{true, true, false, false},
                      Knobs{false, false, false, true},
                      Knobs{true, false, false, true}),
    knobName);

class FeatureCapSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FeatureCapSweep, DimensionFollowsCaps) {
  FeatureParams fp;
  fp.maxInternal = GetParam();
  fp.maxExternal = GetParam();
  CorePattern p;
  p.w = p.h = 1200;
  p.rects = {{100, 100, 300, 1100}, {500, 100, 700, 1100}};
  EXPECT_EQ(buildFeatureVector(p, fp).size(), fp.dim());
}

INSTANTIATE_TEST_SUITE_P(Caps, FeatureCapSweep,
                         ::testing::Values<std::size_t>(1, 4, 16));

class GridNSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridNSweep, ClassifierPartitionsAtAnyPixelation) {
  ClassifyParams cp;
  cp.gridN = GetParam();
  std::vector<CorePattern> pats;
  for (int i = 0; i < 12; ++i) {
    CorePattern p;
    p.w = p.h = 1200;
    p.rects = {{100 + 80 * (i % 4), 0, 250 + 80 * (i % 4), 1200}};
    pats.push_back(std::move(p));
  }
  const auto clusters = classifyPatterns(pats, cp);
  std::size_t total = 0;
  for (const Cluster& c : clusters) total += c.members.size();
  EXPECT_EQ(total, pats.size());
  EXPECT_GE(clusters.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Grids, GridNSweep,
                         ::testing::Values<std::size_t>(6, 12, 20));

}  // namespace
}  // namespace hsd::core
