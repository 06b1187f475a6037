#include "geom/tiling.hpp"

#include <algorithm>

namespace hsd {

namespace {

// Tiles `g`'s window cells along rows (horizontal) or columns: each line's
// maximal runs of equal coverage, a run continuing the previous line's
// tile when that tile has the same span and type. Boxes are numbered in
// creation order, i.e. by (line, position along the line); `tiles` is left
// for finish().
CellTiling tileLines(const CoverGrid& g, bool horizontal,
                     std::pmr::memory_resource* mr) {
  using Box = CellTiling::Box;
  const CoverGrid::Span& w = g.windowCells();
  CellTiling t(mr);
  t.cols = std::uint32_t(w.i1 - w.i0);
  t.rows = std::uint32_t(w.j1 - w.j0);
  t.at.resize(std::size_t(t.cols) * t.rows);
  const std::uint32_t lines = horizontal ? t.rows : t.cols;
  const std::uint32_t along = horizontal ? t.cols : t.rows;
  // Index into `at` of cell k of line l.
  const auto cell = [&](std::uint32_t l, std::uint32_t k) {
    return horizontal ? std::size_t(l) * t.cols + k
                      : std::size_t(k) * t.cols + l;
  };
  const auto covered = [&](std::uint32_t l, std::uint32_t k) {
    return horizontal ? g.covered(w.i0 + k, w.j0 + l)
                      : g.covered(w.i0 + l, w.j0 + k);
  };
  for (std::uint32_t l = 0; l < lines; ++l) {
    for (std::uint32_t k = 0; k < along;) {
      const bool block = covered(l, k);
      const std::uint32_t first = k;
      while (++k < along && covered(l, k) == block) {
      }
      std::uint32_t id = std::uint32_t(t.boxes.size());
      if (l > 0) {
        const std::uint32_t prev = t.at[cell(l - 1, first)];
        Box& b = t.boxes[prev];
        if ((horizontal ? b.i0 == first && b.i1 == k
                        : b.j0 == first && b.j1 == k) &&
            b.isBlock == block) {
          id = prev;
          (horizontal ? b.j1 : b.i1) = l + 1;
        }
      }
      if (id == t.boxes.size())
        t.boxes.push_back(horizontal ? Box{first, k, l, l + 1, block}
                                     : Box{l, l + 1, first, k, block});
      for (std::uint32_t m = first; m < k; ++m) t.at[cell(l, m)] = id;
    }
  }
  return t;
}

// Fills `tiles` from the boxes: the window-local cell indices mapped back
// to the grid's cut coordinates.
void finish(CellTiling& t, const CoverGrid& g) {
  const CoverGrid::Span& w = g.windowCells();
  t.tiles.reserve(t.boxes.size());
  for (const CellTiling::Box& b : t.boxes)
    t.tiles.push_back({Rect{Point{g.x(w.i0 + b.i0), g.y(w.j0 + b.j0)},
                            Point{g.x(w.i0 + b.i1), g.y(w.j0 + b.j1)}},
                       b.isBlock});
}

}  // namespace

CellTiling horizontalCells(const CoverGrid& g,
                           std::pmr::memory_resource* mr) {
  // Rows are scanned bottom-up and runs left to right, and a tile is
  // numbered when its first run is met: already (lo.y, lo.x) order.
  CellTiling t = tileLines(g, true, mr);
  finish(t, g);
  return t;
}

CellTiling verticalCells(const CoverGrid& g, std::pmr::memory_resource* mr) {
  CellTiling t = tileLines(g, false, mr);
  // Column-major numbering is (lo.x, lo.y). Renumber into (lo.y, lo.x) by
  // a counting sort on lo.y: it is stable, and tiles with equal lo.y were
  // numbered in lo.x order.
  const std::size_t n = t.boxes.size();
  std::pmr::vector<std::uint32_t> next(t.rows + 1, 0, mr);
  for (const CellTiling::Box& b : t.boxes) ++next[b.j0 + 1];
  for (std::uint32_t j = 1; j <= t.rows; ++j) next[j] += next[j - 1];
  std::pmr::vector<std::uint32_t> to(n, mr);  // creation number -> rank
  std::pmr::vector<CellTiling::Box> boxes(n, mr);
  for (std::size_t k = 0; k < n; ++k) {
    to[k] = next[t.boxes[k].j0]++;
    boxes[to[k]] = t.boxes[k];
  }
  t.boxes.swap(boxes);
  for (std::uint32_t& c : t.at) c = to[c];
  finish(t, g);
  return t;
}

std::vector<Tile> horizontalTiling(const std::vector<Rect>& blocks,
                                   const Rect& window) {
  return horizontalCells(CoverGrid(blocks, window)).tiles;
}

std::vector<Tile> verticalTiling(const std::vector<Rect>& blocks,
                                 const Rect& window) {
  return verticalCells(CoverGrid(blocks, window)).tiles;
}

namespace {

std::size_t tilesAlong(Coord extent, Coord tileSize) {
  if (extent <= 0) return 1;
  return std::size_t((extent + tileSize - 1) / tileSize);
}

std::size_t axisIndex(Coord p, Coord lo, Coord tileSize, std::size_t n) {
  if (p <= lo) return 0;
  const std::size_t i = std::size_t((p - lo) / tileSize);
  return std::min(i, n - 1);
}

}  // namespace

GridTiling GridTiling::over(const Rect& bounds, Coord tileSize) {
  assert(tileSize > 0);
  GridTiling g;
  g.bounds = bounds;
  g.tileSize = tileSize;
  g.nx = tilesAlong(bounds.width(), tileSize);
  g.ny = tilesAlong(bounds.height(), tileSize);
  return g;
}

Rect GridTiling::tileBox(std::size_t id) const {
  assert(id < tileCount());
  const std::size_t ix = id % nx;
  const std::size_t iy = id / nx;
  const Point lo{bounds.lo.x + Coord(ix) * tileSize,
                 bounds.lo.y + Coord(iy) * tileSize};
  return {lo, Point{std::min(lo.x + tileSize, bounds.hi.x),
                    std::min(lo.y + tileSize, bounds.hi.y)}};
}

std::size_t GridTiling::ownerOf(const Point& p) const {
  return axisIndex(p.y, bounds.lo.y, tileSize, ny) * nx +
         axisIndex(p.x, bounds.lo.x, tileSize, nx);
}

}  // namespace hsd
