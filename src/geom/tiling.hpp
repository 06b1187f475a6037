// Two unrelated tilings share this header:
//
//  1. Maximal horizontal / vertical tilings of a window into block tiles
//     (covered by polygons) and space tiles (empty), as required by the
//     MTCG construction of Sec. III-C (Fig. 6). Both read a CoverGrid of
//     the window: a horizontal tile is a maximal covered or uncovered run
//     of one grid row, merged with the previous row's run when span and
//     type are identical; the vertical tiling is the transpose (columns).
//
//  2. GridTiling: a uniform spatial partition of a layout bounding box
//     into grid tiles, the geometry half of the engine's tiled-evaluation
//     plan (engine/tiler.hpp). It owns the canonical ownership rule: every
//     point of the plane maps to exactly one tile id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "geom/rect.hpp"
#include "geom/rectset.hpp"

namespace hsd {

/// One tile of a tiling: its extent and whether it is polygon (block) or
/// empty space.
struct Tile {
  Rect box;
  bool isBlock = false;

  friend constexpr auto operator<=>(const Tile&, const Tile&) = default;
};

/// A maximal tiling of a CoverGrid's window cells, with each tile's cell
/// box and the tile under every window cell (what the MTCG construction
/// walks instead of comparing tile pairs).
struct CellTiling {
  /// A tile's window-local cells: columns [i0, i1), rows [j0, j1).
  struct Box {
    std::uint32_t i0 = 0, i1 = 0, j0 = 0, j1 = 0;
    bool isBlock = false;
  };

  std::vector<Tile> tiles;              ///< (lo.y, lo.x) ascending
  std::pmr::vector<Box> boxes;          ///< boxes[t]: the cells of tiles[t]
  std::pmr::vector<std::uint32_t> at;   ///< tile of cell (i, j): tileAt(i, j)
  std::uint32_t cols = 0;               ///< window cell columns
  std::uint32_t rows = 0;               ///< window cell rows

  explicit CellTiling(std::pmr::memory_resource* mr) : boxes(mr), at(mr) {}

  std::uint32_t tileAt(std::uint32_t i, std::uint32_t j) const {
    return at[std::size_t(j) * cols + i];
  }
};

/// Horizontal tiling of `g`'s window cells: maximal runs of each row,
/// merged in y. Tiles come out in (lo.y, lo.x) order without a sort.
CellTiling horizontalCells(
    const CoverGrid& g,
    std::pmr::memory_resource* mr = std::pmr::get_default_resource());

/// Vertical tiling of `g`'s window cells: maximal runs of each column,
/// merged in x; sorted into (lo.y, lo.x) order.
CellTiling verticalCells(
    const CoverGrid& g,
    std::pmr::memory_resource* mr = std::pmr::get_default_resource());

/// Horizontally tiled decomposition of `window` given the block rects
/// (clipped to the window). Tiles are disjoint, cover the window exactly,
/// are maximal-in-x then merged-in-y, and come in (lo.y, lo.x) order.
std::vector<Tile> horizontalTiling(const std::vector<Rect>& blocks,
                                   const Rect& window);

/// Vertically tiled decomposition (maximal-in-y then merged-in-x), in
/// (lo.y, lo.x) order.
std::vector<Tile> verticalTiling(const std::vector<Rect>& blocks,
                                 const Rect& window);

/// Uniform grid partition of `bounds` into up-to-`tileSize`-sided tiles.
///
/// Tile ids are row-major (x fastest, bottom row first) and depend only on
/// (bounds, tileSize) — deterministic across runs, thread counts and
/// machines. Ownership is half-open: tile (ix, iy) owns points with
/// lo + i*tileSize <= p < lo + (i+1)*tileSize per axis, except that the
/// last row/column also owns the bounds' upper edge, so `ownerOf` is a
/// total function over `bounds` (and clamps points outside it). A point
/// exactly on an interior tile boundary therefore belongs to the tile
/// *above/right* of the seam — one owner, never two.
struct GridTiling {
  Rect bounds;
  Coord tileSize = 0;
  std::size_t nx = 1;  ///< number of tile columns
  std::size_t ny = 1;  ///< number of tile rows

  /// Partition `bounds` into ceil(extent / tileSize) tiles per axis
  /// (at least one even for degenerate bounds). tileSize must be > 0.
  static GridTiling over(const Rect& bounds, Coord tileSize);

  std::size_t tileCount() const { return nx * ny; }

  /// Owned (un-haloed) region of tile `id`; the last row/column is clipped
  /// to `bounds`, so tile boxes exactly cover the bounding box.
  Rect tileBox(std::size_t id) const;

  /// Row-major id of the tile owning `p` (clamped into the grid, so every
  /// point of the plane has exactly one owner).
  std::size_t ownerOf(const Point& p) const;
};

}  // namespace hsd
