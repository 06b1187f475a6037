// Hierarchical layout: cells, Manhattan-transformed instances and arrays,
// and flattening into a plain Layout. Real designs (and the contest's
// Array_benchmark* layouts) are arrayed cell placements; this module lets
// the generator and the GDSII layer express that structure instead of
// storing every polygon flat.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "geom/orientation.hpp"
#include "geom/polygon.hpp"
#include "layout/layout.hpp"

namespace hsd {

/// D8 transform about the origin (no window): rotation/mirror + offset.
struct CellTransform {
  Orient orient = Orient::R0;
  Point offset;

  Point apply(const Point& p) const;
  Rect apply(const Rect& r) const;
  /// Composition: (this * inner).apply(p) == this->apply(inner.apply(p)).
  CellTransform compose(const CellTransform& inner) const;

  friend constexpr auto operator<=>(const CellTransform&,
                                    const CellTransform&) = default;
};

/// Origin-based orientation application (window-free counterpart of the
/// geom/orientation.hpp window transforms).
Point applyOrigin(Orient o, const Point& p);
Rect applyOrigin(Orient o, const Rect& r);
/// c such that applyOrigin(c, p) == applyOrigin(a, applyOrigin(b, p)).
Orient composeOrient(Orient a, Orient b);

/// One placement of a cell: single instance (cols == rows == 1) or an
/// array stepped by colStep/rowStep.
struct Instance {
  std::string cellName;
  CellTransform transform;
  std::size_t cols = 1;
  std::size_t rows = 1;
  Point colStep;
  Point rowStep;
};

/// A cell: own geometry per layer plus child instances.
class Cell {
 public:
  Cell() = default;
  explicit Cell(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void addPolygon(LayerId layer, Polygon poly) {
    geometry_[layer].push_back(std::move(poly));
  }
  void addRect(LayerId layer, const Rect& r) {
    geometry_[layer].emplace_back(r);
  }
  void addInstance(Instance inst) { instances_.push_back(std::move(inst)); }

  const std::map<LayerId, std::vector<Polygon>>& geometry() const {
    return geometry_;
  }
  const std::vector<Instance>& instances() const { return instances_; }

 private:
  std::string name_;
  std::map<LayerId, std::vector<Polygon>> geometry_;
  std::vector<Instance> instances_;
};

/// A design as a cell library with a designated top cell.
class CellLibrary {
 public:
  Cell& addCell(const std::string& name);
  const Cell* findCell(const std::string& name) const;
  void setTop(std::string name) { top_ = std::move(name); }
  const std::string& top() const { return top_; }
  std::size_t cellCount() const { return cells_.size(); }
  const std::map<std::string, Cell>& cells() const { return cells_; }

  /// Expand the hierarchy under the top cell into a flat Layout.
  /// Throws std::runtime_error on missing cells or reference cycles.
  Layout flatten() const;

  /// Total flat polygon count (without materializing the geometry),
  /// saturating at SIZE_MAX; linear in the number of cells and instances.
  std::size_t flatPolygonCount() const;

 private:
  std::map<std::string, Cell> cells_;
  std::string top_;
};

}  // namespace hsd
