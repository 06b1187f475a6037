#include "gds/gdsii.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "gds/real8.hpp"
#include "geom/polygon.hpp"

namespace hsd::gds {

namespace {

// Record type bytes (record << 8 | datatype).
enum Rec : std::uint16_t {
  kHeader = 0x0002,
  kBgnLib = 0x0102,
  kLibName = 0x0206,
  kUnits = 0x0305,
  kEndLib = 0x0400,
  kBgnStr = 0x0502,
  kStrName = 0x0606,
  kEndStr = 0x0700,
  kBoundary = 0x0800,
  kPath = 0x0900,
  kSref = 0x0A00,
  kAref = 0x0B00,
  kLayer = 0x0D02,
  kDataType = 0x0E02,
  kWidth = 0x0F03,
  kXy = 0x1003,
  kEndEl = 0x1100,
  kSname = 0x1206,
  kColRow = 0x1302,
  kPathType = 0x2102,
  kStrans = 0x1A01,
  kMag = 0x1B05,
  kAngle = 0x1C05,
};

struct Record {
  std::uint16_t type = 0;
  std::vector<std::uint8_t> data;

  std::int16_t i16(std::size_t i) const {
    return std::int16_t((data[2 * i] << 8) | data[2 * i + 1]);
  }
  std::int32_t i32(std::size_t i) const {
    return std::int32_t((std::uint32_t(data[4 * i]) << 24) |
                        (std::uint32_t(data[4 * i + 1]) << 16) |
                        (std::uint32_t(data[4 * i + 2]) << 8) |
                        std::uint32_t(data[4 * i + 3]));
  }
  std::uint64_t u64(std::size_t i) const {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v = (v << 8) | data[8 * i + b];
    return v;
  }
  std::string str() const {
    std::string s(data.begin(), data.end());
    while (!s.empty() && s.back() == '\0') s.pop_back();
    return s;
  }
};

bool readRecord(std::istream& is, Record& rec) {
  std::array<std::uint8_t, 4> hdr{};
  if (!is.read(reinterpret_cast<char*>(hdr.data()), 4)) return false;
  const std::uint16_t len = std::uint16_t((hdr[0] << 8) | hdr[1]);
  if (len < 4) throw GdsError("GDSII: record length < 4");
  rec.type = std::uint16_t((hdr[2] << 8) | hdr[3]);
  rec.data.resize(len - 4);
  if (len > 4 &&
      !is.read(reinterpret_cast<char*>(rec.data.data()), len - 4))
    throw GdsError("GDSII: truncated record");
  return true;
}

struct BoundaryEl {
  LayerId layer = 0;
  std::vector<Point> pts;
};

struct PathEl {
  LayerId layer = 0;
  Coord width = 0;
  std::vector<Point> pts;
};

struct RefEl {
  std::string sname;
  bool reflect = false;
  int angleDeg = 0;
  Point origin;
  bool isArray = false;
  int cols = 1;
  int rows = 1;
  Point colStep;  // per-column displacement
  Point rowStep;  // per-row displacement
};

struct Struct {
  std::vector<BoundaryEl> boundaries;
  std::vector<PathEl> paths;
  std::vector<RefEl> refs;
};

std::vector<Point> parseXy(const Record& rec) {
  const std::size_t n = rec.data.size() / 8;
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rec.i32(2 * i), rec.i32(2 * i + 1)});
  return pts;
}

// Convert a Manhattan path center-line to rectangles of the given width.
std::vector<Rect> pathToRects(const PathEl& pe) {
  std::vector<Rect> out;
  const Coord hw = pe.width / 2;
  if (hw <= 0) return out;
  for (std::size_t i = 0; i + 1 < pe.pts.size(); ++i) {
    const Point& a = pe.pts[i];
    const Point& b = pe.pts[i + 1];
    if (a.x == b.x) {
      out.push_back({a.x - hw, std::min(a.y, b.y), a.x + hw,
                     std::max(a.y, b.y)});
    } else if (a.y == b.y) {
      out.push_back({std::min(a.x, b.x), a.y - hw, std::max(a.x, b.x),
                     a.y + hw});
    } else {
      throw GdsError("GDSII: non-Manhattan PATH segment");
    }
  }
  return out;
}

// Parse the whole stream into raw structures (definition order preserved).
void parseStructs(std::istream& is, std::map<std::string, Struct>& strs,
                  std::vector<std::string>& order) {
  Record rec;
  std::string curName;
  Struct* cur = nullptr;
  enum class ElKind { kNone, kBoundary, kPath, kRef };
  ElKind kind = ElKind::kNone;
  BoundaryEl bnd;
  PathEl path;
  RefEl ref;

  while (readRecord(is, rec)) {
    switch (rec.type) {
      case kBgnStr:
        curName.clear();
        break;
      case kStrName:
        curName = rec.str();
        order.push_back(curName);
        cur = &strs[curName];
        break;
      case kEndStr:
        cur = nullptr;
        break;
      case kBoundary:
        kind = ElKind::kBoundary;
        bnd = {};
        break;
      case kPath:
        kind = ElKind::kPath;
        path = {};
        break;
      case kSref:
      case kAref:
        kind = ElKind::kRef;
        ref = {};
        ref.isArray = rec.type == kAref;
        break;
      case kLayer:
        if (kind == ElKind::kBoundary) bnd.layer = LayerId(rec.i16(0));
        if (kind == ElKind::kPath) path.layer = LayerId(rec.i16(0));
        break;
      case kWidth:
        if (kind == ElKind::kPath) path.width = rec.i32(0);
        break;
      case kSname:
        ref.sname = rec.str();
        break;
      case kStrans:
        ref.reflect = (rec.i16(0) & std::int16_t(0x8000)) != 0;
        break;
      case kAngle:
        ref.angleDeg = int(decodeReal8(rec.u64(0)) + 0.5);
        break;
      case kMag:
        if (decodeReal8(rec.u64(0)) != 1.0)
          throw GdsError("GDSII: MAG != 1 not supported");
        break;
      case kColRow:
        ref.cols = rec.i16(0);
        ref.rows = rec.i16(1);
        break;
      case kXy: {
        const std::vector<Point> pts = parseXy(rec);
        if (kind == ElKind::kBoundary) bnd.pts = pts;
        if (kind == ElKind::kPath) path.pts = pts;
        if (kind == ElKind::kRef) {
          if (!pts.empty()) ref.origin = pts[0];
          if (ref.isArray && pts.size() >= 3) {
            // AREF XY: origin, column endpoint, row endpoint.
            ref.colStep = {(pts[1].x - pts[0].x) / std::max(ref.cols, 1),
                           (pts[1].y - pts[0].y) / std::max(ref.cols, 1)};
            ref.rowStep = {(pts[2].x - pts[0].x) / std::max(ref.rows, 1),
                           (pts[2].y - pts[0].y) / std::max(ref.rows, 1)};
          }
        }
        break;
      }
      case kEndEl:
        if (cur == nullptr) throw GdsError("GDSII: element outside structure");
        if (kind == ElKind::kBoundary) cur->boundaries.push_back(bnd);
        if (kind == ElKind::kPath) cur->paths.push_back(path);
        if (kind == ElKind::kRef) cur->refs.push_back(ref);
        kind = ElKind::kNone;
        break;
      case kEndLib:
        return;
      default:
        break;  // HEADER, BGNLIB, LIBNAME, UNITS, PATHTYPE etc: skip
    }
  }
  if (order.empty()) throw GdsError("GDSII: no structures");
}

// GDS instance orientation: reflect about the x-axis *before* the ccw
// rotation. Maps to a D8 element by composition.
Orient gdsOrient(bool reflect, int angleDeg) {
  Orient rot = Orient::R0;
  switch (((angleDeg % 360) + 360) % 360) {
    case 0:   rot = Orient::R0; break;
    case 90:  rot = Orient::R90; break;
    case 180: rot = Orient::R180; break;
    case 270: rot = Orient::R270; break;
    default:  throw GdsError("GDSII: non-Manhattan SREF angle");
  }
  return reflect ? composeOrient(rot, Orient::MX) : rot;
}

// Inverse mapping for the writer.
std::pair<bool, int> orientToGds(Orient o) {
  for (const bool reflect : {false, true})
    for (const int angle : {0, 90, 180, 270})
      if (gdsOrient(reflect, angle) == o) return {reflect, angle};
  throw GdsError("GDSII: unmappable orientation");  // unreachable
}

}  // namespace

CellLibrary readGdsiiHierarchy(std::istream& is) {
  std::map<std::string, Struct> strs;
  std::vector<std::string> order;
  parseStructs(is, strs, order);
  if (order.empty()) throw GdsError("GDSII: no structures");

  CellLibrary lib;
  for (const std::string& name : order) {
    Cell& cell = lib.addCell(name);
    const Struct& s = strs[name];
    for (const BoundaryEl& b : s.boundaries) {
      std::vector<Point> pts = b.pts;
      if (!pts.empty() && pts.front() == pts.back()) pts.pop_back();
      cell.addPolygon(b.layer, Polygon(std::move(pts)));
    }
    for (const PathEl& pe : s.paths)
      for (const Rect& r : pathToRects(pe)) cell.addRect(pe.layer, r);
    for (const RefEl& r : s.refs) {
      Instance inst;
      inst.cellName = r.sname;
      inst.transform.orient = gdsOrient(r.reflect, r.angleDeg);
      inst.transform.offset = r.origin;
      inst.cols = std::size_t(std::max(r.cols, 1));
      inst.rows = std::size_t(std::max(r.rows, 1));
      inst.colStep = r.colStep;
      inst.rowStep = r.rowStep;
      cell.addInstance(std::move(inst));
    }
  }

  // Top cell: never referenced (ties broken by definition order).
  std::set<std::string> referenced;
  for (const auto& [name, s] : strs)
    for (const RefEl& r : s.refs) referenced.insert(r.sname);
  for (const std::string& name : order) {
    if (referenced.count(name) == 0) {
      lib.setTop(name);
      break;
    }
  }
  return lib;
}

CellLibrary readGdsiiHierarchyFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw GdsError("GDSII: cannot open " + path);
  return readGdsiiHierarchy(is);
}

Layout readGdsii(std::istream& is) {
  const CellLibrary lib = readGdsiiHierarchy(is);
  std::size_t polygons = 0;
  try {
    // The count walks the hierarchy without expanding it, so a small
    // stream of nested arrays fails here instead of in the allocator.
    polygons = lib.flatPolygonCount();
    if (polygons <= kMaxFlatPolygons) return lib.flatten();
  } catch (const std::runtime_error& e) {  // missing cell, depth > 64
    throw GdsError(std::string("GDSII: ") + e.what());
  }
  throw GdsTooLarge("GDSII: hierarchy flattens to " +
                    std::to_string(polygons) + " polygons (limit " +
                    std::to_string(kMaxFlatPolygons) + ")");
}

Layout readGdsiiFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw GdsError("GDSII: cannot open " + path);
  return readGdsii(is);
}

namespace {

void putU16(std::ostream& os, std::uint16_t v) {
  const char b[2] = {char(v >> 8), char(v & 0xff)};
  os.write(b, 2);
}

void putRecord(std::ostream& os, std::uint16_t type,
               const std::vector<std::uint8_t>& data = {}) {
  putU16(os, std::uint16_t(4 + data.size()));
  putU16(os, type);
  os.write(reinterpret_cast<const char*>(data.data()),
           std::streamsize(data.size()));
}

std::vector<std::uint8_t> strData(const std::string& s) {
  std::vector<std::uint8_t> d(s.begin(), s.end());
  if (d.size() % 2) d.push_back(0);
  return d;
}

std::vector<std::uint8_t> i16Data(std::initializer_list<std::int16_t> vals) {
  std::vector<std::uint8_t> d;
  for (const std::int16_t v : vals) {
    d.push_back(std::uint8_t(std::uint16_t(v) >> 8));
    d.push_back(std::uint8_t(std::uint16_t(v) & 0xff));
  }
  return d;
}

std::vector<std::uint8_t> real8Data(std::initializer_list<double> vals) {
  std::vector<std::uint8_t> d;
  for (const double v : vals) {
    const std::uint64_t raw = encodeReal8(v);
    for (int b = 7; b >= 0; --b)
      d.push_back(std::uint8_t((raw >> (8 * b)) & 0xff));
  }
  return d;
}

void push32(std::vector<std::uint8_t>& xy, std::int64_t v) {
  const auto u = std::uint32_t(std::int32_t(v));
  xy.push_back(std::uint8_t(u >> 24));
  xy.push_back(std::uint8_t((u >> 16) & 0xff));
  xy.push_back(std::uint8_t((u >> 8) & 0xff));
  xy.push_back(std::uint8_t(u & 0xff));
}

void putBoundary(std::ostream& os, LayerId layer, const Polygon& poly) {
  if (poly.empty()) return;
  putRecord(os, kBoundary);
  putRecord(os, kLayer, i16Data({std::int16_t(layer)}));
  putRecord(os, kDataType, i16Data({0}));
  std::vector<std::uint8_t> xy;
  for (const Point& p : poly.points()) {
    push32(xy, p.x);
    push32(xy, p.y);
  }
  push32(xy, poly.points().front().x);  // close the loop
  push32(xy, poly.points().front().y);
  putRecord(os, kXy, xy);
  putRecord(os, kEndEl);
}

void putLibHeader(std::ostream& os, const WriteOptions& opt) {
  putRecord(os, kHeader, i16Data({600}));
  putRecord(os, kBgnLib,
            i16Data({2026, 1, 1, 0, 0, 0, 2026, 1, 1, 0, 0, 0}));
  putRecord(os, kLibName, strData(opt.libName));
  putRecord(os, kUnits, real8Data({opt.userUnitDbu, opt.dbuMeters}));
}

void putStrHeader(std::ostream& os, const std::string& name) {
  putRecord(os, kBgnStr,
            i16Data({2026, 1, 1, 0, 0, 0, 2026, 1, 1, 0, 0, 0}));
  putRecord(os, kStrName, strData(name));
}

}  // namespace

void writeGdsii(std::ostream& os, const Layout& layout,
                const WriteOptions& opt) {
  putLibHeader(os, opt);
  putStrHeader(os, layout.name().empty() ? "TOP" : layout.name());
  for (const auto& [layerId, layer] : layout.layers())
    for (const Polygon& poly : layer.polygons()) putBoundary(os, layerId, poly);
  putRecord(os, kEndStr);
  putRecord(os, kEndLib);
}

void writeGdsiiFile(const std::string& path, const Layout& layout,
                    const WriteOptions& opt) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw GdsError("GDSII: cannot open " + path + " for writing");
  writeGdsii(os, layout, opt);
}

void writeGdsiiHierarchy(std::ostream& os, const CellLibrary& lib,
                         const WriteOptions& opt) {
  putLibHeader(os, opt);
  // Children before parents is not required by the format; definition
  // order is simply the library's map order, except the top cell last
  // (cosmetic convention).
  std::vector<const Cell*> cells;
  for (const auto& [name, cell] : lib.cells())
    if (name != lib.top()) cells.push_back(&cell);
  if (const Cell* top = lib.findCell(lib.top())) cells.push_back(top);

  for (const Cell* cell : cells) {
    putStrHeader(os, cell->name());
    for (const auto& [layerId, polys] : cell->geometry())
      for (const Polygon& poly : polys) putBoundary(os, layerId, poly);
    for (const Instance& inst : cell->instances()) {
      const auto [reflect, angle] = orientToGds(inst.transform.orient);
      const bool isArray = inst.cols > 1 || inst.rows > 1;
      putRecord(os, isArray ? kAref : kSref);
      putRecord(os, kSname, strData(inst.cellName));
      if (reflect || angle != 0) {
        putRecord(os, kStrans,
                  i16Data({std::int16_t(reflect ? 0x8000 : 0)}));
        if (angle != 0) putRecord(os, kAngle, real8Data({double(angle)}));
      }
      std::vector<std::uint8_t> xy;
      push32(xy, inst.transform.offset.x);
      push32(xy, inst.transform.offset.y);
      if (isArray) {
        putRecord(os, kColRow, i16Data({std::int16_t(inst.cols),
                                        std::int16_t(inst.rows)}));
        push32(xy, inst.transform.offset.x + Coord(inst.cols) * inst.colStep.x);
        push32(xy, inst.transform.offset.y + Coord(inst.cols) * inst.colStep.y);
        push32(xy, inst.transform.offset.x + Coord(inst.rows) * inst.rowStep.x);
        push32(xy, inst.transform.offset.y + Coord(inst.rows) * inst.rowStep.y);
      }
      putRecord(os, kXy, xy);
      putRecord(os, kEndEl);
    }
    putRecord(os, kEndStr);
  }
  putRecord(os, kEndLib);
}

void writeGdsiiHierarchyFile(const std::string& path, const CellLibrary& lib,
                             const WriteOptions& opt) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw GdsError("GDSII: cannot open " + path + " for writing");
  writeGdsiiHierarchy(os, lib, opt);
}

}  // namespace hsd::gds
