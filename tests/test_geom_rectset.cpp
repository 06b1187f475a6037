// Rect-set operation tests: clipping, union area (vs brute-force pixel
// counting), band normalization, boundary statistics, spacing metrics, and
// the CoverGrid queries against rect-scan oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "geom/rectset.hpp"

namespace hsd {
namespace {

TEST(ClipRects, DropsDisjointKeepsOverlap) {
  const Rect win{0, 0, 100, 100};
  const std::vector<Rect> in{{-10, -10, 5, 5}, {200, 200, 210, 210},
                             {90, 90, 120, 120}, {100, 0, 110, 10}};
  const std::vector<Rect> out = clipRects(in, win);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Rect(0, 0, 5, 5));
  EXPECT_EQ(out[1], Rect(90, 90, 100, 100));
}

TEST(UnionArea, OverlapCountedOnce) {
  const std::vector<Rect> rs{{0, 0, 10, 10}, {5, 5, 15, 15}};
  EXPECT_EQ(unionArea(rs), 100 + 100 - 25);
}

TEST(UnionArea, DisjointSums) {
  const std::vector<Rect> rs{{0, 0, 10, 10}, {20, 0, 30, 10}};
  EXPECT_EQ(unionArea(rs), 200);
}

TEST(UnionArea, ContainedRectIgnored) {
  const std::vector<Rect> rs{{0, 0, 10, 10}, {2, 2, 8, 8}};
  EXPECT_EQ(unionArea(rs), 100);
}

TEST(UnionAreaProperty, MatchesBruteForceOnRandomSets) {
  std::mt19937 rng(5);
  std::uniform_int_distribution<Coord> c(0, 30);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Rect> rs;
    for (int i = 0; i < 6; ++i) {
      Coord x1 = c(rng), x2 = c(rng), y1 = c(rng), y2 = c(rng);
      if (x1 == x2 || y1 == y2) continue;
      rs.push_back({x1, y1, x2, y2});
    }
    // Brute force: count unit cells.
    Area brute = 0;
    for (Coord x = 0; x < 30; ++x)
      for (Coord y = 0; y < 30; ++y) {
        const Rect cell{x, y, x + 1, y + 1};
        for (const Rect& r : rs)
          if (r.overlaps(cell)) {
            ++brute;
            break;
          }
      }
    EXPECT_EQ(unionArea(rs), brute);
  }
}

TEST(NormalizeBands, ProducesDisjointCover) {
  const std::vector<Rect> rs{{0, 0, 10, 10}, {5, 5, 15, 15}, {0, 5, 3, 20}};
  const std::vector<Rect> bands = normalizeBands(rs);
  Area total = 0;
  for (std::size_t i = 0; i < bands.size(); ++i) {
    total += bands[i].area();
    for (std::size_t j = i + 1; j < bands.size(); ++j)
      EXPECT_FALSE(bands[i].overlaps(bands[j]));
  }
  EXPECT_EQ(total, unionArea(rs));
}

TEST(BoundaryStats, SingleRect) {
  const BoundaryStats st = boundaryStats({{0, 0, 10, 10}});
  EXPECT_EQ(st.convexCorners, 4);
  EXPECT_EQ(st.concaveCorners, 0);
  EXPECT_EQ(st.touchPoints, 0);
}

TEST(BoundaryStats, LShapeHasConcaveCorner) {
  // L from two rects sharing an edge.
  const BoundaryStats st =
      boundaryStats({{0, 0, 10, 5}, {0, 5, 5, 10}});
  EXPECT_EQ(st.convexCorners, 5);
  EXPECT_EQ(st.concaveCorners, 1);
  EXPECT_EQ(st.touchPoints, 0);
}

TEST(BoundaryStats, CornerTouchDetected) {
  // Two rects meeting only at (10,10).
  const BoundaryStats st =
      boundaryStats({{0, 0, 10, 10}, {10, 10, 20, 20}});
  EXPECT_EQ(st.touchPoints, 1);
  EXPECT_EQ(st.convexCorners, 6);  // the shared corner is a touch, not convex
}

TEST(BoundaryStats, MergedRectsNoInternalCorners) {
  // Two abutting rects forming one 20x10 rect: interior edge invisible.
  const BoundaryStats st =
      boundaryStats({{0, 0, 10, 10}, {10, 0, 20, 10}});
  EXPECT_EQ(st.convexCorners, 4);
  EXPECT_EQ(st.concaveCorners, 0);
  EXPECT_EQ(st.touchPoints, 0);
}

TEST(MinExternalSpacing, TwoFacingRects) {
  const Rect win{0, 0, 100, 100};
  EXPECT_EQ(minExternalSpacing({{0, 0, 10, 50}, {25, 0, 40, 50}}, win), 15);
  // Vertical facing pair.
  EXPECT_EQ(minExternalSpacing({{0, 0, 50, 10}, {0, 18, 50, 30}}, win), 8);
}

TEST(MinExternalSpacing, NoPairReturnsMinusOne) {
  const Rect win{0, 0, 100, 100};
  EXPECT_EQ(minExternalSpacing({{0, 0, 10, 10}}, win), -1);
  EXPECT_EQ(minExternalSpacing({}, win), -1);
}

TEST(MinInternalWidth, ThinWire) {
  EXPECT_EQ(minInternalWidth({{0, 0, 5, 100}}), 5);
  EXPECT_EQ(minInternalWidth({{0, 0, 100, 7}}), 7);
}

TEST(MinInternalWidth, NeckBetweenPlates) {
  // Dumbbell: two 20-wide plates joined by a 4-wide neck.
  const std::vector<Rect> rs{
      {0, 0, 20, 20}, {8, 20, 12, 40}, {0, 40, 20, 60}};
  EXPECT_EQ(minInternalWidth(rs), 4);
}

TEST(CoveredX, RequiresFullBandSpan) {
  const std::vector<Rect> rs{{0, 0, 10, 5}, {20, 2, 30, 8}};
  // Band [0,5): only the first rect spans it fully.
  const auto iv = coveredX(rs, 0, 5);
  ASSERT_EQ(iv.size(), 1u);
  EXPECT_EQ(iv[0], Interval(0, 10));
  // Band [2,5): both span.
  EXPECT_EQ(coveredX(rs, 2, 5).size(), 2u);
}

// ---- Oracles: the rect-scan forms the CoverGrid queries replaced. ----

std::vector<Coord> oracleCuts(const std::vector<Rect>& rects, bool x) {
  std::vector<Coord> cs;
  for (const Rect& r : rects) {
    cs.push_back(x ? r.lo.x : r.lo.y);
    cs.push_back(x ? r.hi.x : r.hi.y);
  }
  std::sort(cs.begin(), cs.end());
  cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
  return cs;
}

// Whether some rect covers an open neighborhood in the given quadrant of p.
bool oracleQuadrant(const std::vector<Rect>& rects, const Point& p, int dx,
                    int dy) {
  for (const Rect& r : rects) {
    const bool xok = dx > 0 ? (r.lo.x <= p.x && p.x < r.hi.x)
                            : (r.lo.x < p.x && p.x <= r.hi.x);
    const bool yok = dy > 0 ? (r.lo.y <= p.y && p.y < r.hi.y)
                            : (r.lo.y < p.y && p.y <= r.hi.y);
    if (xok && yok) return true;
  }
  return false;
}

BoundaryStats oracleBoundaryStats(const std::vector<Rect>& rects) {
  BoundaryStats st;
  for (const Coord x : oracleCuts(rects, true)) {
    for (const Coord y : oracleCuts(rects, false)) {
      const bool ne = oracleQuadrant(rects, {x, y}, +1, +1);
      const bool nw = oracleQuadrant(rects, {x, y}, -1, +1);
      const bool se = oracleQuadrant(rects, {x, y}, +1, -1);
      const bool sw = oracleQuadrant(rects, {x, y}, -1, -1);
      const int cnt = int(ne) + int(nw) + int(se) + int(sw);
      if (cnt == 1) ++st.convexCorners;
      if (cnt == 3) ++st.concaveCorners;
      if (cnt == 2 && ((ne && sw) || (nw && se))) ++st.touchPoints;
    }
  }
  return st;
}

// Merged covered intervals of band [c1, c2] across the x (or y) axis.
std::vector<Interval> oracleBand(const std::vector<Rect>& rects, bool rows,
                                 Coord c1, Coord c2) {
  return rows ? coveredX(rects, c1, c2) : coveredY(rects, c1, c2);
}

Coord oracleMinExternal(const std::vector<Rect>& rects, const Rect& window) {
  Coord best = -1;
  for (const bool rows : {true, false}) {
    const std::vector<Coord> cs = oracleCuts(rects, !rows);
    const Coord wlo = rows ? window.lo.y : window.lo.x;
    const Coord whi = rows ? window.hi.y : window.hi.x;
    for (std::size_t i = 0; i + 1 < cs.size(); ++i) {
      if (std::max(cs[i], wlo) >= std::min(cs[i + 1], whi)) continue;
      const auto iv = oracleBand(rects, rows, cs[i], cs[i + 1]);
      for (std::size_t k = 0; k + 1 < iv.size(); ++k) {
        const Coord gap = iv[k + 1].lo - iv[k].hi;
        if (gap > 0 && (best < 0 || gap < best)) best = gap;
      }
    }
  }
  return best;
}

Coord oracleMinInternal(const std::vector<Rect>& rects) {
  Coord best = -1;
  for (const bool rows : {true, false}) {
    const std::vector<Coord> cs = oracleCuts(rects, !rows);
    for (std::size_t i = 0; i + 1 < cs.size(); ++i)
      for (const Interval& iv : oracleBand(rects, rows, cs[i], cs[i + 1]))
        if (iv.length() > 0 && (best < 0 || iv.length() < best))
          best = iv.length();
  }
  return best;
}

void expectGridMatchesOracles(const std::vector<Rect>& rs, const Rect& win,
                              int trial) {
  const CoverGrid g(rs);
  const BoundaryStats want = oracleBoundaryStats(rs);
  const BoundaryStats got = g.boundaryStats();
  ASSERT_EQ(got.convexCorners, want.convexCorners) << "trial " << trial;
  ASSERT_EQ(got.concaveCorners, want.concaveCorners) << "trial " << trial;
  ASSERT_EQ(got.touchPoints, want.touchPoints) << "trial " << trial;
  ASSERT_EQ(g.minInternalWidth(), oracleMinInternal(rs)) << "trial " << trial;
  ASSERT_EQ(g.minExternalSpacing(win), oracleMinExternal(rs, win))
      << "trial " << trial;
  ASSERT_EQ(g.area(), unionArea(rs)) << "trial " << trial;
  // The free functions are the same queries.
  const BoundaryStats free = boundaryStats(rs);
  ASSERT_EQ(free.convexCorners, want.convexCorners) << "trial " << trial;
  ASSERT_EQ(free.touchPoints, want.touchPoints) << "trial " << trial;
  ASSERT_EQ(minInternalWidth(rs), oracleMinInternal(rs)) << "trial " << trial;
  ASSERT_EQ(minExternalSpacing(rs, win), oracleMinExternal(rs, win))
      << "trial " << trial;
}

TEST(CoverGridOracle, RandomSetsMatchRectScans) {
  // Coordinates on a 0..24 lattice, so rects often overlap, nest and share
  // edges or corners; about one in five is zero-width or zero-height, and
  // edges at 0 and 24 reach the window edge.
  std::mt19937 rng(31);
  std::uniform_int_distribution<Coord> c(0, 24);
  std::uniform_int_distribution<int> n(0, 9);
  const Rect full{0, 0, 24, 24};
  const Rect inner{5, 3, 19, 22};  // exercises the external-spacing clamp
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<Rect> rs;
    for (int i = n(rng); i > 0; --i) {
      const Coord x1 = c(rng), y1 = c(rng);
      Coord x2 = c(rng), y2 = c(rng);
      if (c(rng) < 3) x2 = x1;  // zero width
      if (c(rng) < 3) y2 = y1;  // zero height
      rs.push_back({x1, y1, x2, y2});
    }
    if (trial % 7 == 0 && !rs.empty()) {  // a rect nested in another
      const Rect& r = rs.front();
      rs.push_back({r.lo.x + r.width() / 3, r.lo.y + r.height() / 3,
                    r.hi.x - r.width() / 3, r.hi.y - r.height() / 3});
    }
    expectGridMatchesOracles(rs, trial % 2 == 0 ? full : inner, trial);
  }
}

TEST(CoverGridOracle, EdgeCases) {
  const Rect win{0, 0, 10, 10};
  expectGridMatchesOracles({}, win, 0);                         // empty
  expectGridMatchesOracles({{3, 0, 3, 10}}, win, 1);            // a line
  expectGridMatchesOracles({{2, 2, 2, 2}}, win, 2);             // a point
  expectGridMatchesOracles({{0, 0, 10, 10}}, win, 3);           // the window
  expectGridMatchesOracles({{0, 0, 5, 5}, {5, 5, 10, 10}}, win, 4);
  expectGridMatchesOracles({{0, 0, 4, 10}, {6, 0, 10, 10}}, win, 5);
  expectGridMatchesOracles({{0, 0, 4, 10}, {4, 0, 10, 10}}, win, 6);
  expectGridMatchesOracles({{-5, -5, 15, 3}, {-5, 7, 15, 15}}, win, 7);
  const CoverGrid empty({});
  EXPECT_EQ(empty.minInternalWidth(), -1);
  EXPECT_EQ(empty.minExternalSpacing(win), -1);
  EXPECT_EQ(empty.area(), 0);
}

}  // namespace
}  // namespace hsd
