// Operations on collections of (possibly overlapping) rectangles: clipping
// to a window, union area, band-wise normalization, corner/touch counting.
// These are the geometric workhorses behind pattern encoding and feature
// extraction.
#pragma once

#include <memory_resource>
#include <vector>

#include "geom/interval.hpp"
#include "geom/rect.hpp"

namespace hsd {

/// Clip every rect to `window`, dropping rects with no positive-area
/// intersection.
std::vector<Rect> clipRects(const std::vector<Rect>& rects,
                            const Rect& window);

/// Exact area of the union of `rects` (overlaps counted once).
Area unionArea(const std::vector<Rect>& rects);

/// Decompose the union of `rects` into disjoint rects, one per
/// (y-band, merged x-interval): the canonical band representation.
/// Bands are split at every distinct rect edge y.
std::vector<Rect> normalizeBands(const std::vector<Rect>& rects);

/// Merged x-intervals covered by `rects` within the horizontal band
/// [y1, y2]; only rects fully spanning the band contribute (callers pass
/// band edges from the rects' own y-coordinates, so spans are exact).
std::vector<Interval> coveredX(const std::vector<Rect>& rects, Coord y1,
                               Coord y2);

/// Merged y-intervals covered by `rects` within the vertical band [x1, x2].
std::vector<Interval> coveredY(const std::vector<Rect>& rects, Coord x1,
                               Coord x2);

/// Statistics of the union boundary of a rect set (computed on the
/// normalized band decomposition):
struct BoundaryStats {
  int convexCorners = 0;    ///< 90-degree outward corners
  int concaveCorners = 0;   ///< 270-degree (reflex) corners
  int touchPoints = 0;      ///< points where two shapes meet only at a corner
};

/// The union of a rect set as a grid of cells between consecutive distinct
/// rect-edge coordinates, each cell either covered or not. Every edge lies
/// on a cut line, so the union's corners, band-wise widths and gaps, and
/// area all follow from the grid: build it once to ask several of them.
///
/// Built with a window, the window's bounds are cut lines too, and the
/// cells inside the window are those the tilings, the MTCGs and the slice
/// strings read (a rect reaching outside the window covers the in-window
/// cells its clipped part covers). Extra cut lines change no answer: a
/// corner, run, gap or area reads the same with or without them.
///
/// The window constructor takes the memory resource of the grid's storage
/// (heap by default); per-clip callers pass an engine::ArenaResource over
/// the thread's scratch arena.
class CoverGrid {
 public:
  explicit CoverGrid(const std::vector<Rect>& rects);
  CoverGrid(const std::vector<Rect>& rects, const Rect& window,
            std::pmr::memory_resource* mr = std::pmr::get_default_resource());

  /// Cell-index span of a grid region: columns [i0, i1), rows [j0, j1).
  struct Span {
    std::size_t i0 = 0, i1 = 0, j0 = 0, j1 = 0;
  };
  /// The cells inside the window (all cells when built without one).
  const Span& windowCells() const { return window_; }

  /// Cut line coordinates: column i spans [x(i), x(i + 1)], row j spans
  /// [y(j), y(j + 1)].
  Coord x(std::size_t i) const { return xs_[i]; }
  Coord y(std::size_t j) const { return ys_[j]; }
  /// Whether cell (i, j) is covered; false outside the grid.
  bool covered(std::size_t i, std::size_t j) const {
    return i < nx_ && j < ny_ && cells_[j * nx_ + i] != 0;
  }

  /// Count convex/concave corners and corner-touch points of the union.
  /// Corner classification looks at the 4 quadrants around each cut point:
  /// 1 covered quadrant = convex, 3 = concave, 2 diagonal = touch point
  /// (the paper's non-topological features #1 and #2).
  BoundaryStats boundaryStats() const;

  /// Minimum positive horizontal or vertical distance between two facing
  /// edges *across empty space* (external spacing), over the bands that
  /// overlap `window`. Returns -1 when no such pair exists.
  Coord minExternalSpacing(const Rect& window) const;

  /// Minimum width of the union measured band-wise: the smallest dimension
  /// of any maximal band segment (internal spacing between internally
  /// facing edges, i.e. min feature width). Returns -1 for an empty set.
  Coord minInternalWidth() const;

  /// Exact area of the union (equals unionArea of the rects).
  Area area() const;

 private:
  CoverGrid(const std::vector<Rect>& rects, const Rect* window,
            std::pmr::memory_resource* mr);
  // Calls f(lo, hi) for each maximal run of covered cells, ascending, in
  // row `line` (rows) or column `line` (!rows).
  template <class F>
  void forEachRun(bool rows, std::size_t line, F&& f) const;

  std::pmr::vector<Coord> xs_;
  std::pmr::vector<Coord> ys_;
  std::size_t nx_ = 0;  ///< cell columns: xs_.size() - 1 (0 when empty)
  std::size_t ny_ = 0;
  std::pmr::vector<unsigned char> cells_;  ///< cell (i, j) at j * nx_ + i
  Span window_;
};

/// CoverGrid(rects).boundaryStats().
BoundaryStats boundaryStats(const std::vector<Rect>& rects);

/// CoverGrid(rects).minExternalSpacing(window).
Coord minExternalSpacing(const std::vector<Rect>& rects, const Rect& window);

/// CoverGrid(rects).minInternalWidth().
Coord minInternalWidth(const std::vector<Rect>& rects);

}  // namespace hsd
