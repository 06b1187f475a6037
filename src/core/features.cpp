#include "core/features.hpp"

#include <algorithm>

#include "core/topo_string.hpp"
#include "engine/arena.hpp"
#include "geom/density_grid.hpp"
#include "geom/rectset.hpp"

namespace hsd::core {

namespace {

int boundaryTouches(const Rect& t, const Rect& window) {
  int n = 0;
  if (t.lo.x == window.lo.x) ++n;
  if (t.hi.x == window.hi.x) ++n;
  if (t.lo.y == window.lo.y) ++n;
  if (t.hi.y == window.hi.y) ++n;
  return n;
}

RuleRect makeRule(FeatKind kind, const Rect& box, const Rect& window) {
  RuleRect r;
  r.kind = kind;
  r.w = box.width();
  r.h = box.height();
  r.dx = box.lo.x - window.lo.x;
  r.dy = box.lo.y - window.lo.y;
  r.boundaryMark = boundaryTouches(box, window);
  return r;
}

// Internal features: block tiles whose horizontal (Ch) or vertical (Cv)
// neighborhood is all space, touching at most one window boundary.
void extractInternal(const Mtcg& g, std::vector<RuleRect>& out) {
  for (std::size_t i = 0; i < g.tiles.size(); ++i) {
    const Tile& t = g.tiles[i];
    if (!t.isBlock) continue;
    if (g.boundaryTouches(i) > 1) continue;
    bool allSpace = true;
    for (const std::size_t j : g.out(i)) allSpace &= !g.tiles[j].isBlock;
    for (const std::size_t j : g.in(i)) allSpace &= !g.tiles[j].isBlock;
    if (allSpace && g.degree(i) > 0)
      out.push_back(makeRule(FeatKind::kInternal, t.box, g.window));
  }
}

// External features: space tiles lying between exactly two block tiles.
void extractExternal(const Mtcg& g, std::vector<RuleRect>& out) {
  for (std::size_t i = 0; i < g.tiles.size(); ++i) {
    const Tile& t = g.tiles[i];
    if (t.isBlock) continue;
    if (g.boundaryTouches(i) > 1) continue;
    if (g.degree(i) != 2) continue;
    bool allBlock = true;
    for (const std::size_t j : g.out(i)) allBlock &= g.tiles[j].isBlock;
    for (const std::size_t j : g.in(i)) allBlock &= g.tiles[j].isBlock;
    if (allBlock)
      out.push_back(makeRule(FeatKind::kExternal, t.box, g.window));
  }
}

// Diagonal features: the corner gap box between diagonally adjacent tiles.
void extractDiagonal(const Mtcg& g, std::vector<RuleRect>& out) {
  for (const auto& [i, j] : g.diagonals) {
    const Rect& a = g.tiles[i].box;
    const Rect& b = g.tiles[j].box;
    // Reconstruct the corner region (a is left of b by construction order;
    // re-derive robustly from the two boxes).
    const Rect *left = &a, *right = &b;
    if (left->hi.x > right->lo.x) std::swap(left, right);
    Rect corner;
    if (left->hi.y <= right->lo.y)
      corner = {left->hi.x, left->hi.y, right->lo.x, right->lo.y};
    else
      corner = {left->hi.x, right->hi.y, right->lo.x, left->lo.y};
    out.push_back(makeRule(FeatKind::kDiagonal, corner, g.window));
  }
}

// Segment features: space tiles with 2 or 3 window-boundary edges.
void extractSegment(const Mtcg& g, std::vector<RuleRect>& out) {
  for (std::size_t i = 0; i < g.tiles.size(); ++i) {
    const Tile& t = g.tiles[i];
    if (t.isBlock) continue;
    const int bt = g.boundaryTouches(i);
    if (bt == 2 || bt == 3)
      out.push_back(makeRule(FeatKind::kSegment, t.box, g.window));
  }
}

bool positionLess(const RuleRect& a, const RuleRect& b) {
  if (a.dy != b.dy) return a.dy < b.dy;
  if (a.dx != b.dx) return a.dx < b.dx;
  if (a.w != b.w) return a.w < b.w;
  return a.h < b.h;
}

}  // namespace

std::vector<RuleRect> extractRuleRects(const CorePattern& p) {
  return extractRuleRects(buildCh(p), buildCv(p));
}

std::vector<RuleRect> extractRuleRects(const Mtcg& ch, const Mtcg& cv) {
  std::vector<RuleRect> out;
  extractInternal(ch, out);
  extractInternal(cv, out);
  extractExternal(ch, out);
  extractExternal(cv, out);
  extractDiagonal(ch, out);
  extractSegment(ch, out);
  extractSegment(cv, out);

  // Deterministic order: kind, then position; drop duplicates (a tile can
  // qualify identically in both tilings).
  std::sort(out.begin(), out.end(), [](const RuleRect& a, const RuleRect& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    return positionLess(a, b);
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

NonTopoFeatures extractNonTopo(const CorePattern& p) {
  engine::ArenaScope scope(engine::threadScratch());
  engine::ArenaResource mr(scope.arena());
  return extractNonTopo(p, CoverGrid(p.rects, p.window(), &mr));
}

NonTopoFeatures extractNonTopo(const CorePattern& p, const CoverGrid& grid) {
  NonTopoFeatures f;
  const BoundaryStats st = grid.boundaryStats();
  f.corners = st.convexCorners + st.concaveCorners;
  f.touchPoints = st.touchPoints;
  f.minInternal = std::max<Coord>(0, grid.minInternalWidth());
  f.minExternal = std::max<Coord>(0, grid.minExternalSpacing(p.window()));
  const Area wa = p.window().area();
  f.density = wa > 0 ? double(grid.area()) / double(wa) : 0.0;
  return f;
}

svm::FeatureVector buildFeatureVector(const CorePattern& pat,
                                      const FeatureParams& fp) {
  const CorePattern p =
      fp.canonicalize ? pat.transformed(canonicalOrient(pat)) : pat;

  // One grid of the canonical pattern answers the tilings, both MTCGs and
  // the non-topological features. It and the density raster live in
  // thread-local arena scratch (no per-clip heap allocation), rewound on
  // return.
  engine::ArenaScope scope(engine::threadScratch());
  engine::ArenaResource mr(scope.arena());
  const CoverGrid grid(p.rects, p.window(), &mr);
  const std::vector<RuleRect> rules =
      extractRuleRects(buildCh(p, grid), buildCv(p, grid));
  svm::FeatureVector v;
  v.reserve(fp.dim());

  constexpr double kPad = -1.0;
  const auto emitKind = [&](FeatKind kind, std::size_t cap) {
    std::size_t n = 0;
    for (const RuleRect& r : rules) {
      if (r.kind != kind) continue;
      if (n >= cap) break;
      v.push_back(double(r.w));
      v.push_back(double(r.h));
      v.push_back(double(r.dx));
      v.push_back(double(r.dy));
      v.push_back(double(r.boundaryMark));
      ++n;
    }
    for (; n < cap; ++n)
      v.insert(v.end(), {kPad, kPad, kPad, kPad, kPad});
  };
  emitKind(FeatKind::kInternal, fp.maxInternal);
  emitKind(FeatKind::kExternal, fp.maxExternal);
  emitKind(FeatKind::kDiagonal, fp.maxDiagonal);
  emitKind(FeatKind::kSegment, fp.maxSegment);

  const NonTopoFeatures nt = extractNonTopo(p, grid);
  v.push_back(double(nt.corners));
  v.push_back(double(nt.touchPoints));
  v.push_back(double(nt.minInternal));
  v.push_back(double(nt.minExternal));
  v.push_back(nt.density);

  if (fp.densityGridN > 0) {
    // Rasterize into the scratch instead of constructing a DensityGrid
    // (whose pixel vector would be a fresh heap allocation on every clip).
    const std::span<double> g =
        scope.arena().allocSpan<double>(fp.densityGridN * fp.densityGridN);
    rasterizeDensity(p.rects, p.window(), fp.densityGridN, fp.densityGridN,
                     g.data());
    v.insert(v.end(), g.begin(), g.end());
  }
  return v;
}

}  // namespace hsd::core
