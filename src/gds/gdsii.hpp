// Minimal-but-real GDSII stream reader/writer, replacing the proprietary
// Anuvad library the paper used. Supports BOUNDARY and PATH elements,
// structure hierarchies flattened through SREF/AREF with Manhattan
// transforms (90-degree angles, optional reflection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "layout/hierarchy.hpp"
#include "layout/layout.hpp"

namespace hsd::gds {

/// Error while parsing or writing a GDSII stream.
class GdsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A GDSII stream whose hierarchy would flatten to more than
/// kMaxFlatPolygons polygons (readGdsii refuses it before flattening).
class GdsTooLarge : public GdsError {
 public:
  using GdsError::GdsError;
};

/// The most polygons readGdsii flattens a hierarchy into (2^22): a few
/// hundred MB of flat geometry, ~690x the largest generated benchmark
/// layout (about 6,100 polygons), and more than a 64 MB body can hold
/// flat. A stream of a few hundred bytes can place one cell 30000 x
/// 30000 times.
inline constexpr std::size_t kMaxFlatPolygons = std::size_t(1) << 22;

/// Options controlling GDSII export.
struct WriteOptions {
  std::string libName = "HSDLIB";
  /// Database unit in meters; 1e-9 == 1 dbu = 1 nm (project convention).
  double dbuMeters = 1e-9;
  /// User unit in database units (GDS "units in user units" field).
  double userUnitDbu = 1e-3;
};

/// Write `layout` as a single-structure GDSII stream.
void writeGdsii(std::ostream& os, const Layout& layout,
                const WriteOptions& opt = {});
void writeGdsiiFile(const std::string& path, const Layout& layout,
                    const WriteOptions& opt = {});

/// Read a GDSII stream, flattening the hierarchy under the top structure
/// (the structure that is never referenced; ties broken by first defined).
/// PATH elements are converted to rectangles (Manhattan segments only).
/// Every failure is a GdsError: a missing cell or a too-deep hierarchy
/// too, and GdsTooLarge past kMaxFlatPolygons flat polygons.
Layout readGdsii(std::istream& is);
Layout readGdsiiFile(const std::string& path);

/// Read a GDSII stream preserving the structure hierarchy: every GDS
/// structure becomes a Cell; SREF/AREF become Instances (Manhattan
/// transforms only). The top cell is the unreferenced structure.
CellLibrary readGdsiiHierarchy(std::istream& is);
CellLibrary readGdsiiHierarchyFile(const std::string& path);

/// Write a cell library with full hierarchy (SREF/AREF records).
void writeGdsiiHierarchy(std::ostream& os, const CellLibrary& lib,
                         const WriteOptions& opt = {});
void writeGdsiiHierarchyFile(const std::string& path, const CellLibrary& lib,
                             const WriteOptions& opt = {});

}  // namespace hsd::gds
