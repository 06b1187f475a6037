// Multilayer training-set generator tests + window-list format tests +
// Platt-calibrated detector probability tests.
#include <gtest/gtest.h>

#include <sstream>

#include "core/multilayer.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"

namespace hsd {
namespace {

TEST(MultiLayerGen, MeetsTargetsWithTwoLayers) {
  data::GeneratorParams gp;
  gp.seed = 31;
  data::MultiLayerTargets t;
  t.hotspots = 20;
  t.nonHotspots = 60;
  const gds::ClipSet set = data::generateMultiLayerTrainingSet(gp, t);
  std::size_t hs = 0;
  for (const Clip& c : set.clips) {
    hs += c.label() == Label::kHotspot;
    EXPECT_FALSE(c.rectsOn(t.layer1).empty());
    EXPECT_FALSE(c.rectsOn(t.layer2).empty());
  }
  EXPECT_EQ(hs, 20u);
  EXPECT_EQ(set.clips.size(), 80u);
}

TEST(MultiLayerGen, DetectorLearnsTheOverlapSignal) {
  data::GeneratorParams gp;
  gp.seed = 32;
  data::MultiLayerTargets t;
  t.hotspots = 30;
  t.nonHotspots = 120;
  const gds::ClipSet train = data::generateMultiLayerTrainingSet(gp, t);
  gp.seed = 33;
  const gds::ClipSet test = data::generateMultiLayerTrainingSet(gp, t);

  core::MultiLayerParams mp;
  mp.layers = {t.layer1, t.layer2};
  const auto det = core::MultiLayerDetector::train(train.clips, mp);
  std::size_t tp = 0, hsAll = 0, fp = 0, nhsAll = 0;
  for (const Clip& c : test.clips) {
    const bool hot = c.label() == Label::kHotspot;
    const bool pred = det.evaluateClip(c);
    if (hot) {
      ++hsAll;
      tp += pred;
    } else {
      ++nhsAll;
      fp += pred;
    }
  }
  EXPECT_GE(double(tp) / double(hsAll), 0.85);
  EXPECT_LE(double(fp) / double(nhsAll), 0.5);
}

TEST(MultiLayerGen, RoundTripsThroughClipSetFormat) {
  data::GeneratorParams gp;
  gp.seed = 35;
  data::MultiLayerTargets t;
  t.hotspots = 4;
  t.nonHotspots = 8;
  const gds::ClipSet set = data::generateMultiLayerTrainingSet(gp, t);
  std::stringstream ss;
  gds::writeClipSet(ss, set);
  const gds::ClipSet back = gds::readClipSet(ss);
  ASSERT_EQ(back.clips.size(), set.clips.size());
  for (std::size_t i = 0; i < set.clips.size(); ++i) {
    EXPECT_EQ(back.clips[i].rectsOn(1), set.clips[i].rectsOn(1));
    EXPECT_EQ(back.clips[i].rectsOn(2), set.clips[i].rectsOn(2));
  }
}

TEST(WindowList, RoundTrip) {
  const ClipParams p;
  const std::vector<ClipWindow> wins{ClipWindow::atCore({0, 0}, p),
                                     ClipWindow::atCore({-500, 9000}, p)};
  std::stringstream ss;
  gds::writeWindowList(ss, wins, p);
  const auto [back, params] = gds::readWindowList(ss);
  EXPECT_EQ(params, p);
  EXPECT_EQ(back, wins);
}

TEST(WindowList, MissingHeaderThrows) {
  std::stringstream ss("at 0 0\n");
  EXPECT_THROW(gds::readWindowList(ss), gds::GdsError);
}

TEST(WindowList, BadLineThrows) {
  std::stringstream ss("windows 1200 4800\nat nope\n");
  EXPECT_THROW(gds::readWindowList(ss), gds::GdsError);
}

// ---- Platt-calibrated detector probabilities ----

Clip lineClip(Coord w, Label label, Coord jx = 0) {
  const ClipParams p;
  Clip c(ClipWindow::atCore({1800, 1800}, p), label);
  const Coord x = 2400 - w / 2 + jx;
  c.setRects(1, {{x, 0, x + w, 4800}});
  return c;
}

TEST(DetectorPlatt, ProbabilityTracksRisk) {
  std::vector<Clip> training;
  for (int i = 0; i < 10; ++i)
    training.push_back(lineClip(100, Label::kHotspot, i * 30 - 150));
  for (int i = 0; i < 40; ++i)
    training.push_back(lineClip(220, Label::kNonHotspot, i * 8 - 160));
  engine::RunContext ctx(1);
  const core::Detector det = core::trainDetector(training, {}, ctx);
  ASSERT_TRUE(det.hasPlatt);
  const double pRisky = det.hotspotProbability(
      core::CorePattern::fromCore(lineClip(100, Label::kUnknown, 40), 1));
  const double pSafe = det.hotspotProbability(
      core::CorePattern::fromCore(lineClip(220, Label::kUnknown, -40), 1));
  EXPECT_GT(pRisky, 0.5);
  EXPECT_LT(pSafe, 0.5);
  EXPECT_GT(pRisky, pSafe + 0.3);
}

TEST(DetectorPlatt, SurvivesSaveLoad) {
  std::vector<Clip> training;
  for (int i = 0; i < 8; ++i)
    training.push_back(lineClip(100, Label::kHotspot, i * 40 - 160));
  for (int i = 0; i < 30; ++i)
    training.push_back(lineClip(220, Label::kNonHotspot, i * 10 - 150));
  engine::RunContext ctx(1);
  const core::Detector det = core::trainDetector(training, {}, ctx);
  std::stringstream ss;
  det.save(ss);
  const core::Detector back = core::Detector::load(ss);
  EXPECT_EQ(back.hasPlatt, det.hasPlatt);
  const auto probe =
      core::CorePattern::fromCore(lineClip(130, Label::kUnknown, 25), 1);
  EXPECT_NEAR(back.hotspotProbability(probe), det.hotspotProbability(probe),
              1e-9);
}

}  // namespace
}  // namespace hsd
