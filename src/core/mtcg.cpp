#include "core/mtcg.hpp"

#include <algorithm>

#include "engine/arena.hpp"

namespace hsd::core {

int Mtcg::boundaryTouches(std::size_t i) const {
  const Rect& t = tiles[i].box;
  int n = 0;
  if (t.lo.x == window.lo.x) ++n;
  if (t.hi.x == window.hi.x) ++n;
  if (t.lo.y == window.lo.y) ++n;
  if (t.hi.y == window.hi.y) ++n;
  return n;
}

void Mtcg::setEdges(
    std::span<const std::pair<std::size_t, std::size_t>> edges) {
  const std::size_t n = tiles.size();
  const auto fill = [&](std::vector<std::size_t>& start,
                        std::vector<std::size_t>& adj, bool forward) {
    // Count each list's length two slots ahead, prefix-sum, then use
    // start[v + 1] as list v's write cursor: it ends at list v + 1's begin.
    start.assign(n + 2, 0);
    for (const auto& [a, b] : edges) ++start[(forward ? a : b) + 2];
    for (std::size_t v = 1; v < n + 2; ++v) start[v] += start[v - 1];
    adj.resize(edges.size());
    for (const auto& [a, b] : edges)
      adj[start[(forward ? a : b) + 1]++] = forward ? b : a;
    start.pop_back();
    for (std::size_t v = 0; v < n; ++v)
      std::sort(adj.begin() + std::ptrdiff_t(start[v]),
                adj.begin() + std::ptrdiff_t(start[v + 1]));
  };
  fill(outStart_, outAdj_, true);
  fill(inStart_, inAdj_, false);
}

namespace {

using Box = CellTiling::Box;
using Edges = std::pmr::vector<std::pair<std::size_t, std::size_t>>;

// Ch edges: tiles whose runs are consecutive in some row, left -> right.
// A pair is consecutive in every row both tiles span, so it is taken only
// in the first of them: the row where the later-starting one starts.
void rowEdges(const CellTiling& t, Edges& e) {
  if (t.cols == 0) return;
  for (std::uint32_t j = 0; j < t.rows; ++j) {
    for (std::uint32_t a = t.tileAt(0, j); t.boxes[a].i1 < t.cols;) {
      const std::uint32_t b = t.tileAt(t.boxes[a].i1, j);
      if (t.boxes[a].j0 == j || t.boxes[b].j0 == j) e.emplace_back(a, b);
      a = b;
    }
  }
}

// Cv edges: tiles whose runs are consecutive in some column, bottom -> top.
void columnEdges(const CellTiling& t, Edges& e) {
  if (t.rows == 0) return;
  for (std::uint32_t i = 0; i < t.cols; ++i) {
    for (std::uint32_t a = t.tileAt(i, 0); t.boxes[a].j1 < t.rows;) {
      const std::uint32_t b = t.tileAt(i, t.boxes[a].j1);
      if (t.boxes[a].i0 == i || t.boxes[b].i0 == i) e.emplace_back(a, b);
      a = b;
    }
  }
}

// The diagonal relation of Mtcg::diagonals, found by walking the grid away
// from each tile a's right edge (column line p), upward from its top edge
// (northeast partners) and downward from its bottom edge (southeast), one
// row at a time. Only tiles b with b.lo.x >= a.hi.x are visited, and a
// walk stops once no later row can hold a partner.
void addDiagonals(Mtcg& g, const CellTiling& t) {
  const auto& boxes = t.boxes;
  for (std::uint32_t a = 0; a < boxes.size(); ++a) {
    const std::uint32_t p = boxes[a].i1;
    const bool type = boxes[a].isBlock;
    if (p == t.cols) continue;  // nothing right of a
    const auto link = [&](std::uint32_t b) {
      g.diagonals.emplace_back(std::min(a, b), std::max(a, b));
    };
    for (const bool up : {true, false}) {
      // Line q: a's top (up) or bottom edge. Partners whose facing edge lies
      // on q have a zero-height (or point) corner region: it is blocked
      // from the first column where a tile of a's type straddles q.
      const std::uint32_t q = up ? boxes[a].j1 : boxes[a].j0;
      if (up ? q == t.rows : q == 0) continue;
      const std::uint32_t beyondQ = up ? q : q - 1;  // the row past line q
      for (std::uint32_t c = p; c < t.cols;) {
        const std::uint32_t bi = t.tileAt(c, beyondQ);
        const Box& b = boxes[bi];
        if (b.isBlock == type) {
          if ((up ? b.j0 : b.j1) != q) break;  // straddles q
          if (b.i0 >= p) link(bi);
        }
        c = b.i1;
      }
      // Partners whose facing edge lies on a later line s: the corner
      // region spans the rows between q and s. In every such row, cells
      // [p, r) hold no tile of a's type iff r <= rEnd (the run of the other
      // type starting at p ends at its tile's right edge), and a tile of
      // a's type straddling column line p blocks the zero-width region.
      std::uint32_t rEnd = t.cols;
      bool lineBlocked = false;
      for (std::uint32_t s = up ? q + 1 : q - 1; up ? s < t.rows : s > 0;
           up ? ++s : --s) {
        const Box& under = boxes[t.tileAt(p, up ? s - 1 : s)];
        if (under.isBlock == type) {
          rEnd = p;
          lineBlocked |= under.i0 < p;
        } else {
          rEnd = std::min(rEnd, under.i1);
        }
        if (rEnd == p && lineBlocked) break;
        const std::uint32_t beyond = up ? s : s - 1;  // the row past line s
        for (std::uint32_t c = p; c < t.cols && c <= rEnd;) {
          const std::uint32_t bi = t.tileAt(c, beyond);
          const Box& b = boxes[bi];
          if (b.isBlock == type && b.i0 == c && (up ? b.j0 : b.j1) == s &&
              (c > p || !lineBlocked))
            link(bi);
          c = b.i1;
        }
      }
    }
  }
  std::sort(g.diagonals.begin(), g.diagonals.end());
}

Mtcg build(const CorePattern& p, const CoverGrid& grid, bool horizontal) {
  engine::ArenaScope scope(engine::threadScratch());
  engine::ArenaResource mr(scope.arena());
  CellTiling t = horizontal ? horizontalCells(grid, &mr)
                            : verticalCells(grid, &mr);
  Edges edges(&mr);
  edges.reserve(2 * t.boxes.size());
  if (horizontal)
    rowEdges(t, edges);
  else
    columnEdges(t, edges);
  Mtcg g;
  g.window = p.window();
  g.tiles = std::move(t.tiles);
  g.setEdges(edges);
  if (horizontal) addDiagonals(g, t);
  return g;
}

}  // namespace

Mtcg buildCh(const CorePattern& p, const CoverGrid& g) {
  return build(p, g, true);
}

Mtcg buildCv(const CorePattern& p, const CoverGrid& g) {
  return build(p, g, false);
}

Mtcg buildCh(const CorePattern& p) {
  engine::ArenaScope scope(engine::threadScratch());
  engine::ArenaResource mr(scope.arena());
  return buildCh(p, CoverGrid(p.rects, p.window(), &mr));
}

Mtcg buildCv(const CorePattern& p) {
  engine::ArenaScope scope(engine::threadScratch());
  engine::ArenaResource mr(scope.arena());
  return buildCv(p, CoverGrid(p.rects, p.window(), &mr));
}

}  // namespace hsd::core
