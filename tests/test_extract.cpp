// Clip extraction tests: coverage of geometry-bearing regions, the
// density/margin screen, dedup, and the window-scan baseline counts.
#include <gtest/gtest.h>

#include "core/extract.hpp"
#include "data/generator.hpp"
#include "engine/run_context.hpp"

namespace hsd::core {
namespace {

TEST(Extract, EmptyLayoutNoClips) {
  const Layout l;
  engine::RunContext ctx(1);
  EXPECT_TRUE(extractCandidateClips(l, 1, {}, ctx).empty());
}

TEST(Extract, SingleWireProducesClips) {
  Layout l;
  l.addRect(1, {0, 0, 200, 20000});
  ExtractParams p;
  p.minRectCount = 1;
  p.minDensity = 0.0005;
  // An isolated wire leaves >1440 nm empty margins in every clip; the
  // default margin screen would (correctly, per Sec. III-E) drop them.
  p.maxMargin = 100000;
  engine::RunContext ctx(1);
  const auto clips = extractCandidateClips(l, 1, p, ctx);
  EXPECT_FALSE(clips.empty());
  // Every candidate core must contain some geometry.
  for (const ClipWindow& w : clips)
    EXPECT_TRUE(w.clip.overlaps(Rect(0, 0, 200, 20000)));
}

TEST(Extract, EveryPolygonCoveredByAClip) {
  // Sec. III-E: if the screen passes, each polygon is included in at least
  // one extracted clip.
  data::GeneratorParams gp;
  gp.seed = 3;
  const auto test = data::generateTestLayout(gp, 25000, 25000, 9, 0.5);
  ExtractParams p;
  p.minRectCount = 1;
  p.minDensity = 0.0;
  p.maxDensity = 1.0;
  p.maxMargin = 100000;  // effectively no screen
  engine::RunContext ctx(1);
  const auto clips = extractCandidateClips(test.layout, 1, p, ctx);
  const auto& rects = test.layout.findLayer(1)->rects();
  for (const Rect& r : rects) {
    bool covered = false;
    for (const ClipWindow& w : clips)
      if (w.clip.overlaps(r)) {
        covered = true;
        break;
      }
    EXPECT_TRUE(covered) << r;
  }
}

TEST(Extract, DensityScreenDropsSparseClips) {
  Layout l;
  l.addRect(1, {0, 0, 50, 50});  // a tiny speck
  ExtractParams loose;
  loose.minRectCount = 1;
  loose.minDensity = 0.0;
  loose.maxMargin = 100000;
  engine::RunContext ctx(1);
  EXPECT_FALSE(extractCandidateClips(l, 1, loose, ctx).empty());
  ExtractParams strict = loose;
  strict.minDensity = 0.05;  // the speck can't reach 5% clip density
  EXPECT_TRUE(extractCandidateClips(l, 1, strict, ctx).empty());
}

TEST(Extract, MarginScreenDropsCornerHuggers) {
  // Geometry confined to one corner of its clip fails the margin test.
  Layout l;
  l.addRect(1, {0, 0, 600, 600});
  ExtractParams p;
  p.minRectCount = 1;
  p.minDensity = 0.0;
  p.maxMargin = 1440;
  // The clip anchored at this rect has ~4200nm empty on two sides.
  engine::RunContext ctx(1);
  EXPECT_TRUE(extractCandidateClips(l, 1, p, ctx).empty());
}

TEST(Extract, AnchorsDeduplicated) {
  Layout l;
  // Two identical overlapping rects: same anchor, one candidate.
  l.addRect(1, {1000, 1000, 1200, 1200});
  l.addRect(1, {1000, 1000, 1200, 1200});
  ExtractParams p;
  p.minRectCount = 1;
  p.minDensity = 0.0;
  p.maxMargin = 100000;
  engine::RunContext ctx(1);
  EXPECT_EQ(extractCandidateClips(l, 1, p, ctx).size(), 1u);
}

TEST(Extract, FewerClipsThanWindowScan) {
  // The paper's Table V claim: density-screened extraction produces far
  // fewer clips than 50%-overlap window scanning.
  data::GeneratorParams gp;
  gp.seed = 5;
  const auto test = data::generateTestLayout(gp, 30000, 30000, 12, 0.5);
  ExtractParams p;
  engine::RunContext ctx(1);
  const auto ours = extractCandidateClips(test.layout, 1, p, ctx);
  const auto windows = windowScanClips(test.layout, 1, p.clip, 0.5);
  EXPECT_LT(ours.size(), windows.size());
  EXPECT_GT(ours.size(), 0u);
}

TEST(WindowScan, CountMatchesGrid) {
  Layout l;
  l.addRect(1, {0, 0, 6000, 6000});
  const ClipParams cp;
  // Step = 600 (50% of 1200 core): 10x10 grid.
  EXPECT_EQ(windowScanClips(l, 1, cp, 0.5).size(), 100u);
  // 0% overlap: step 1200 -> 5x5.
  EXPECT_EQ(windowScanClips(l, 1, cp, 0.0).size(), 25u);
}

TEST(Extract, ThreadedMatchesSerial) {
  data::GeneratorParams gp;
  gp.seed = 8;
  const auto test = data::generateTestLayout(gp, 25000, 25000, 8, 0.5);
  engine::RunContext ctx1(1);
  engine::RunContext ctx4(4);
  const auto a = extractCandidateClips(test.layout, 1, {}, ctx1);
  const auto b = extractCandidateClips(test.layout, 1, {}, ctx4);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace hsd::core
