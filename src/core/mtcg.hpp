// Modified transitive closure graphs (MTCG, Sec. III-C / Fig. 6): the
// tiled core pattern as a constraint graph. Vertices are block/space
// tiles; edges connect adjacent tiles whose projections overlap. Only the
// horizontally tiled horizontal graph Ch carries diagonal edges between
// corner-adjacent same-type tiles with an empty corner region.
//
// Both graphs are read off one CoverGrid of the pattern's window: the
// tiles are the grid's maximal row (Ch) or column (Cv) runs, two tiles are
// adjacent exactly when their runs are consecutive in some row (Ch) or
// column (Cv), and the diagonals are found by walking the grid away from
// each tile's corners rather than by testing tile pairs.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/pattern.hpp"
#include "geom/rectset.hpp"
#include "geom/tiling.hpp"

namespace hsd::core {

struct Mtcg {
  Rect window;
  std::vector<Tile> tiles;  ///< canonical order: (lo.y, lo.x) ascending
  /// Diagonal edges (Ch only): corner-adjacent same-type tile pairs
  /// (i < j by canonical order), ascending.
  ///
  /// Tile a and tile b of the same type, b strictly northeast or southeast
  /// of a (a.hi.x <= b.lo.x, and a.hi.y <= b.lo.y or b.hi.y <= a.lo.y), are
  /// diagonal unless another tile of that type overlaps the corner region
  /// between a's and b's facing corners under Rect::overlaps. For a corner
  /// region of positive area that means: the region holds no cell of that
  /// type. A zero-area region is a segment or a point, and the strict
  /// overlap test blocks it only when a same-type tile's interior crosses
  /// it. So two same-type tiles far apart that share an x (or y) edge
  /// coordinate are diagonal unless such a tile straddles the segment
  /// between them, and a point corner is never blocked. Whether this
  /// matches the paper's Fig. 6 is open (see ROADMAP); changing it changes
  /// trained models.
  std::vector<std::pair<std::size_t, std::size_t>> diagonals;

  /// Tiles directly right of (Ch) or above (Cv) tile i with overlapping
  /// projections, ascending.
  std::span<const std::size_t> out(std::size_t i) const {
    return {outAdj_.data() + outStart_[i], outAdj_.data() + outStart_[i + 1]};
  }
  /// Tiles directly left of (Ch) or below (Cv) tile i, ascending.
  std::span<const std::size_t> in(std::size_t i) const {
    return {inAdj_.data() + inStart_[i], inAdj_.data() + inStart_[i + 1]};
  }
  std::size_t degree(std::size_t i) const {
    return out(i).size() + in(i).size();
  }
  /// Number of window boundary edges the tile touches (0..4).
  int boundaryTouches(std::size_t i) const;

  /// Replaces the adjacency with the directed edges (from, to), each given
  /// once, over the current tiles; stored flat (CSR), each list ascending.
  void setEdges(std::span<const std::pair<std::size_t, std::size_t>> edges);

 private:
  std::vector<std::size_t> outStart_, outAdj_;
  std::vector<std::size_t> inStart_, inAdj_;
};

/// Horizontally tiled horizontal constraint graph Ch (with diagonals).
Mtcg buildCh(const CorePattern& p);
/// Ch from a grid of p's rects built with p's window (CoverGrid(p.rects,
/// p.window())).
Mtcg buildCh(const CorePattern& p, const CoverGrid& g);

/// Vertically tiled vertical constraint graph Cv.
Mtcg buildCv(const CorePattern& p);
/// Cv from a grid of p's rects built with p's window.
Mtcg buildCv(const CorePattern& p, const CoverGrid& g);

}  // namespace hsd::core
