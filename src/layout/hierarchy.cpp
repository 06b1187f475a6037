#include "layout/hierarchy.hpp"

#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace hsd {

Point applyOrigin(Orient o, const Point& p) {
  switch (o) {
    case Orient::R0:    return {p.x, p.y};
    case Orient::R90:   return {-p.y, p.x};
    case Orient::R180:  return {-p.x, -p.y};
    case Orient::R270:  return {p.y, -p.x};
    case Orient::MX:    return {p.x, -p.y};
    case Orient::MY:    return {-p.x, p.y};
    case Orient::MXR90: return {p.y, p.x};
    case Orient::MYR90: return {-p.y, -p.x};
  }
  return p;
}

Rect applyOrigin(Orient o, const Rect& r) {
  const Point a = applyOrigin(o, r.lo);
  const Point b = applyOrigin(o, r.hi);
  return Rect{a.x, a.y, b.x, b.y};
}

Orient composeOrient(Orient a, Orient b) {
  // Probe two independent points; D8 elements are uniquely determined by
  // their action on them.
  const Point p1 = applyOrigin(a, applyOrigin(b, {1, 0}));
  const Point p2 = applyOrigin(a, applyOrigin(b, {0, 1}));
  for (const Orient c : kAllOrients)
    if (applyOrigin(c, Point{1, 0}) == p1 &&
        applyOrigin(c, Point{0, 1}) == p2)
      return c;
  return Orient::R0;  // unreachable: D8 is closed under composition
}

Point CellTransform::apply(const Point& p) const {
  return applyOrigin(orient, p) + offset;
}

Rect CellTransform::apply(const Rect& r) const {
  const Point a = apply(r.lo);
  const Point b = apply(r.hi);
  return Rect{a.x, a.y, b.x, b.y};
}

CellTransform CellTransform::compose(const CellTransform& inner) const {
  CellTransform out;
  out.orient = composeOrient(orient, inner.orient);
  out.offset = applyOrigin(orient, inner.offset) + offset;
  return out;
}

Cell& CellLibrary::addCell(const std::string& name) {
  auto [it, inserted] = cells_.try_emplace(name, Cell(name));
  if (top_.empty()) top_ = name;
  return it->second;
}

const Cell* CellLibrary::findCell(const std::string& name) const {
  const auto it = cells_.find(name);
  return it == cells_.end() ? nullptr : &it->second;
}

namespace {

void flattenCell(const CellLibrary& lib, const Cell& cell,
                 const CellTransform& t, Layout& out, int depth) {
  if (depth > 64)
    throw std::runtime_error("CellLibrary::flatten: depth > 64 (cycle?)");
  for (const auto& [layer, polys] : cell.geometry()) {
    for (const Polygon& poly : polys) {
      std::vector<Point> pts;
      pts.reserve(poly.points().size());
      for (const Point& p : poly.points()) pts.push_back(t.apply(p));
      out.addPolygon(layer, Polygon(std::move(pts)));
    }
  }
  for (const Instance& inst : cell.instances()) {
    const Cell* child = lib.findCell(inst.cellName);
    if (child == nullptr)
      throw std::runtime_error("CellLibrary::flatten: missing cell " +
                               inst.cellName);
    for (std::size_t row = 0; row < inst.rows; ++row) {
      for (std::size_t col = 0; col < inst.cols; ++col) {
        CellTransform placed = inst.transform;
        placed.offset += Point{Coord(col) * inst.colStep.x +
                                   Coord(row) * inst.rowStep.x,
                               Coord(col) * inst.colStep.y +
                                   Coord(row) * inst.rowStep.y};
        flattenCell(lib, *child, t.compose(placed), out, depth + 1);
      }
    }
  }
}

/// a + b and a * b, saturating at SIZE_MAX instead of wrapping.
std::size_t addSat(std::size_t a, std::size_t b) {
  std::size_t r = 0;
  return __builtin_add_overflow(a, b, &r)
             ? std::numeric_limits<std::size_t>::max()
             : r;
}
std::size_t mulSat(std::size_t a, std::size_t b) {
  std::size_t r = 0;
  return __builtin_mul_overflow(a, b, &r)
             ? std::numeric_limits<std::size_t>::max()
             : r;
}

/// Flat polygon count of `cell`, saturating at SIZE_MAX. Memoized per
/// cell, so a sub-cell shared by many instances is counted once and the
/// cost is linear in the hierarchy, not in its expansion.
std::size_t countCell(const CellLibrary& lib, const Cell& cell, int depth,
                      std::unordered_map<const Cell*, std::size_t>& memo) {
  if (depth > 64)
    throw std::runtime_error("CellLibrary: depth > 64 (cycle?)");
  if (const auto it = memo.find(&cell); it != memo.end()) return it->second;
  std::size_t n = 0;
  for (const auto& [layer, polys] : cell.geometry())
    n = addSat(n, polys.size());
  for (const Instance& inst : cell.instances()) {
    const Cell* child = lib.findCell(inst.cellName);
    if (child == nullptr)
      throw std::runtime_error("CellLibrary: missing cell " + inst.cellName);
    n = addSat(n, mulSat(mulSat(inst.cols, inst.rows),
                         countCell(lib, *child, depth + 1, memo)));
  }
  memo.emplace(&cell, n);
  return n;
}

}  // namespace

Layout CellLibrary::flatten() const {
  Layout out(top_);
  const Cell* topCell = findCell(top_);
  if (topCell == nullptr)
    throw std::runtime_error("CellLibrary::flatten: no top cell");
  flattenCell(*this, *topCell, CellTransform{}, out, 0);
  return out;
}

std::size_t CellLibrary::flatPolygonCount() const {
  const Cell* topCell = findCell(top_);
  if (topCell == nullptr) return 0;
  std::unordered_map<const Cell*, std::size_t> memo;
  return countCell(*this, *topCell, 0, memo);
}

}  // namespace hsd
