// Redundant clip removal tests: the key safety property (no actual hotspot
// whose core was overlapped before can be lost), reduction behavior, and
// the individual passes.
#include <gtest/gtest.h>

#include <random>

#include "common.hpp"
#include "core/metrics.hpp"
#include "core/removal.hpp"

namespace hsd::core {
namespace {

using tests::at;
using tests::emptyIndex;

TEST(Removal, EmptyInput) {
  const GridIndex idx = emptyIndex();
  engine::RunContext ctx(1);
  EXPECT_TRUE(removeRedundantClips({}, idx, {}, ctx).empty());
}

TEST(Removal, SingleReportSurvives) {
  const GridIndex idx = emptyIndex();
  engine::RunContext ctx(1);
  const auto out = removeRedundantClips({at(0, 0)}, idx, {}, ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], at(0, 0));
}

TEST(Removal, DisjointReportsUntouched) {
  const GridIndex idx = emptyIndex();
  engine::RunContext ctx(1);
  const auto out = removeRedundantClips(
      {at(0, 0), at(10000, 0), at(0, 10000)}, idx, {}, ctx);
  EXPECT_EQ(out.size(), 3u);
}

TEST(Removal, PileOfOverlappingCoresShrinks) {
  // 25 reports piled on the same spot (cores overlapping heavily) must
  // come out as far fewer reframed cores.
  std::vector<ClipWindow> pile;
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) pile.push_back(at(i * 100, j * 100));
  const GridIndex idx = emptyIndex();
  engine::RunContext ctx(1);
  const auto out = removeRedundantClips(pile, idx, {}, ctx);
  EXPECT_LT(out.size(), pile.size());
  EXPECT_GE(out.size(), 1u);
}

TEST(Removal, CoverageGuarantee) {
  // Safety: any point covered by some input core stays covered by some
  // output core (so a hit on an actual hotspot cannot be lost).
  std::mt19937 rng(12);
  std::uniform_int_distribution<Coord> c(0, 20000);
  engine::RunContext ctx(1);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<ClipWindow> reports;
    for (int i = 0; i < 30; ++i) reports.push_back(at(c(rng), c(rng)));
    const GridIndex idx = emptyIndex();
    const auto out = removeRedundantClips(reports, idx, {}, ctx);
    for (const ClipWindow& r : reports) {
      const Point center = r.core.center();
      bool covered = false;
      for (const ClipWindow& o : out)
        if (o.core.contains(center)) {
          covered = true;
          break;
        }
      EXPECT_TRUE(covered) << "lost coverage of a reported core center";
    }
  }
}

TEST(Removal, HitPreservation) {
  // Score before and after removal against synthetic actual hotspots:
  // hits must not decrease.
  std::mt19937 rng(23);
  std::uniform_int_distribution<Coord> c(0, 15000);
  std::vector<ClipWindow> actual;
  for (int i = 0; i < 6; ++i) actual.push_back(at(c(rng), c(rng)));
  // Reports: several noisy reports near each actual.
  std::vector<ClipWindow> reports;
  std::uniform_int_distribution<Coord> n(-300, 300);
  for (const ClipWindow& a : actual)
    for (int k = 0; k < 8; ++k)
      reports.push_back(at(a.core.lo.x + n(rng), a.core.lo.y + n(rng)));
  const Score before = scoreReports(reports, actual);
  const GridIndex idx = emptyIndex();
  engine::RunContext ctx(1);
  const auto filtered = removeRedundantClips(reports, idx, {}, ctx);
  const Score after = scoreReports(filtered, actual);
  EXPECT_GE(after.hits, before.hits);
  EXPECT_LE(filtered.size(), reports.size());
}

TEST(Removal, ReframePitchRespectsCoreSide) {
  // A long strip of >4 overlapping cores gets reframed at l_s < l_c; the
  // output cores must still tile the strip without gaps larger than l_c.
  std::vector<ClipWindow> strip;
  for (int i = 0; i < 12; ++i) strip.push_back(at(i * 200, 0));
  const GridIndex idx = emptyIndex();
  engine::RunContext ctx(1);
  RemovalParams rp;
  const auto out = removeRedundantClips(strip, idx, rp, ctx);
  EXPECT_LT(out.size(), strip.size());
  // Strip x-extent [0, 200*11 + 1200]; all original core centers covered.
  for (const ClipWindow& r : strip) {
    bool covered = false;
    for (const ClipWindow& o : out)
      if (o.core.contains(r.core.center())) covered = true;
    EXPECT_TRUE(covered);
  }
}

TEST(Removal, ShiftRecentersOffsetClip) {
  // A report whose clip hugs the polygons on one side gets recentered
  // toward the geometry's center of gravity.
  // Geometry: a dense blob hugging the right edge of the reported clip.
  std::vector<Rect> geom;
  for (int i = 0; i < 5; ++i)
    geom.push_back({2500 + i * 150, 1000, 2600 + i * 150, 3800});
  const GridIndex idx(geom, tests::kClip.clipSide);
  engine::RunContext ctx(1);
  RemovalParams rp;
  rp.maxMargin = 1440;
  const ClipWindow rep = at(300, 1800);  // clip [-1500..3300]: 4000nm left margin
  const auto out = removeRedundantClips({rep}, idx, rp, ctx);
  ASSERT_EQ(out.size(), 1u);
  // The surviving clip center moved toward the blob (x grew).
  EXPECT_GT(out[0].core.center().x, rep.core.center().x);
}

TEST(Removal, IdempotentOnCleanReports) {
  // Already-sparse reports pass through unchanged by a second application.
  const GridIndex idx = emptyIndex();
  engine::RunContext ctx(1);
  const std::vector<ClipWindow> in{at(0, 0), at(8000, 2000), at(2000, 9000)};
  const auto once = removeRedundantClips(in, idx, {}, ctx);
  const auto twice = removeRedundantClips(once, idx, {}, ctx);
  EXPECT_EQ(once, twice);
}

}  // namespace
}  // namespace hsd::core
