// MTCG construction tests: tile counts, constraint edges, and diagonal
// edges on hand-analyzed patterns.
#include <gtest/gtest.h>

#include "core/mtcg.hpp"

namespace hsd::core {
namespace {

CorePattern pattern(Coord w, Coord h, std::vector<Rect> rects) {
  CorePattern p;
  p.w = w;
  p.h = h;
  p.rects = std::move(rects);
  return p;
}

std::size_t edgeCount(const Mtcg& g) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < g.tiles.size(); ++i) n += g.out(i).size();
  return n;
}

TEST(Mtcg, EmptyPatternOneTileNoEdges) {
  const Mtcg g = buildCh(pattern(100, 100, {}));
  ASSERT_EQ(g.tiles.size(), 1u);
  EXPECT_FALSE(g.tiles[0].isBlock);
  EXPECT_EQ(edgeCount(g), 0u);
  EXPECT_TRUE(g.diagonals.empty());
  EXPECT_EQ(g.boundaryTouches(0), 4);
}

TEST(Mtcg, CenteredBlockCh) {
  const Mtcg g = buildCh(pattern(30, 30, {{10, 10, 20, 20}}));
  // Horizontal tiling: bottom strip, left-mid, block, right-mid, top = 5.
  ASSERT_EQ(g.tiles.size(), 5u);
  // Ch edges: left->block, block->right in the middle band.
  EXPECT_EQ(edgeCount(g), 2u);
  // Find the block tile and check its neighborhood.
  std::size_t blockIdx = g.tiles.size();
  for (std::size_t i = 0; i < g.tiles.size(); ++i)
    if (g.tiles[i].isBlock) blockIdx = i;
  ASSERT_LT(blockIdx, g.tiles.size());
  EXPECT_EQ(g.in(blockIdx).size(), 1u);
  EXPECT_EQ(g.out(blockIdx).size(), 1u);
  EXPECT_EQ(g.boundaryTouches(blockIdx), 0);
}

TEST(Mtcg, CenteredBlockCv) {
  const Mtcg g = buildCv(pattern(30, 30, {{10, 10, 20, 20}}));
  ASSERT_EQ(g.tiles.size(), 5u);
  EXPECT_EQ(edgeCount(g), 2u);  // below->block, block->above
}

TEST(Mtcg, ChEdgesAreLeftToRight) {
  const Mtcg g = buildCh(pattern(30, 10, {{10, 0, 20, 10}}));
  // One band: space | block | space.
  ASSERT_EQ(g.tiles.size(), 3u);
  for (std::size_t i = 0; i < g.tiles.size(); ++i)
    for (const std::size_t j : g.out(i))
      EXPECT_LT(g.tiles[i].box.lo.x, g.tiles[j].box.lo.x);
}

TEST(Mtcg, DiagonalBlocksDetected) {
  // Two blocks in strict NE relation with an empty corner region.
  const Mtcg g =
      buildCh(pattern(100, 100, {{0, 0, 30, 30}, {60, 60, 100, 100}}));
  bool found = false;
  for (const auto& [i, j] : g.diagonals)
    if (g.tiles[i].isBlock && g.tiles[j].isBlock) found = true;
  EXPECT_TRUE(found);
}

TEST(Mtcg, DiagonalBlockedByInterveningTile) {
  // A third block inside the corner region kills the diagonal relation.
  const Mtcg g = buildCh(pattern(
      100, 100, {{0, 0, 30, 30}, {60, 60, 100, 100}, {35, 35, 55, 55}}));
  for (const auto& [i, j] : g.diagonals) {
    if (!g.tiles[i].isBlock) continue;
    // The corner pair (0..30) x (60..100) must not be directly linked.
    const bool cornerPair =
        (g.tiles[i].box.hi.x <= 30 && g.tiles[j].box.lo.x >= 60) ||
        (g.tiles[j].box.hi.x <= 30 && g.tiles[i].box.lo.x >= 60);
    EXPECT_FALSE(cornerPair && g.tiles[i].box.hi.y <= 30 &&
                 g.tiles[j].box.lo.y >= 60);
  }
}

TEST(Mtcg, SoutheastDiagonalAlsoDetected) {
  const Mtcg g =
      buildCh(pattern(100, 100, {{0, 70, 30, 100}, {60, 0, 100, 30}}));
  bool found = false;
  for (const auto& [i, j] : g.diagonals)
    if (g.tiles[i].isBlock && g.tiles[j].isBlock) found = true;
  EXPECT_TRUE(found);
}

TEST(Mtcg, CvHasNoDiagonals) {
  const Mtcg g =
      buildCv(pattern(100, 100, {{0, 0, 30, 30}, {60, 60, 100, 100}}));
  EXPECT_TRUE(g.diagonals.empty());
}

TEST(Mtcg, EdgesRequireProjectionOverlap) {
  // Two blocks side by side but at different heights, separated by space:
  // no direct Ch edge between the blocks.
  const Mtcg g =
      buildCh(pattern(100, 100, {{0, 0, 20, 20}, {40, 60, 60, 80}}));
  for (std::size_t i = 0; i < g.tiles.size(); ++i) {
    if (!g.tiles[i].isBlock) continue;
    for (const std::size_t j : g.out(i)) EXPECT_FALSE(g.tiles[j].isBlock);
    for (const std::size_t j : g.in(i)) EXPECT_FALSE(g.tiles[j].isBlock);
  }
}

TEST(Mtcg, BoundaryTouchCounts) {
  const Mtcg g = buildCh(pattern(100, 100, {{0, 0, 100, 20}}));
  for (std::size_t i = 0; i < g.tiles.size(); ++i) {
    if (g.tiles[i].isBlock)
      EXPECT_EQ(g.boundaryTouches(i), 3);  // bottom, left, right
    else
      EXPECT_EQ(g.boundaryTouches(i), 3);  // top, left, right
  }
}

// A zero-area corner region is blocked only by a same-type tile whose
// interior crosses it (see Mtcg::diagonals): here two blocks share the
// x = 30 edge coordinate 50 apart, and a third block across x = 30 between
// them removes the diagonal.
TEST(Mtcg, ZeroAreaCornerDiagonal) {
  const auto blockDiagonal = [](const Mtcg& g, const Rect& a, const Rect& b) {
    for (const auto& [i, j] : g.diagonals)
      if (g.tiles[i].isBlock &&
          ((g.tiles[i].box == a && g.tiles[j].box == b) ||
           (g.tiles[i].box == b && g.tiles[j].box == a)))
        return true;
    return false;
  };
  const Rect a{0, 0, 30, 20}, b{30, 70, 60, 100};
  EXPECT_TRUE(blockDiagonal(buildCh(pattern(100, 100, {a, b})), a, b));
  // A block beside the segment (ending at x = 30) does not cross it.
  EXPECT_TRUE(blockDiagonal(
      buildCh(pattern(100, 100, {a, {10, 40, 30, 50}, b})), a, b));
  EXPECT_FALSE(blockDiagonal(
      buildCh(pattern(100, 100, {a, {10, 40, 50, 50}, b})), a, b));
  // The same along a shared y edge coordinate.
  const Rect c{0, 0, 20, 30}, d{70, 30, 100, 60};
  EXPECT_TRUE(blockDiagonal(buildCh(pattern(100, 100, {c, d})), c, d));
  EXPECT_FALSE(blockDiagonal(
      buildCh(pattern(100, 100, {c, {40, 10, 50, 50}, d})), c, d));
}

}  // namespace
}  // namespace hsd::core
