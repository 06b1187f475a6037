// GDSII robustness tests: malformed streams must fail with GdsError, not
// crash or hang; benign unknown records are skipped.
#include <gtest/gtest.h>

#include <sstream>

#include "common.hpp"
#include "gds/gdsii.hpp"
#include "gds/real8.hpp"

namespace hsd::gds {
namespace {

void putU16(std::ostream& os, std::uint16_t v) {
  const char b[2] = {char(v >> 8), char(v & 0xff)};
  os.write(b, 2);
}
void putRec(std::ostream& os, std::uint16_t type,
            const std::vector<std::uint8_t>& d = {}) {
  putU16(os, std::uint16_t(4 + d.size()));
  putU16(os, type);
  os.write(reinterpret_cast<const char*>(d.data()), std::streamsize(d.size()));
}
std::vector<std::uint8_t> i16s(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> d;
  for (int v : vals) {
    d.push_back(std::uint8_t(std::uint16_t(v) >> 8));
    d.push_back(std::uint8_t(v & 0xff));
  }
  return d;
}
std::vector<std::uint8_t> str(const std::string& s) {
  std::vector<std::uint8_t> d(s.begin(), s.end());
  if (d.size() % 2) d.push_back(0);
  return d;
}
std::vector<std::uint8_t> real8(double v) {
  std::vector<std::uint8_t> d;
  const std::uint64_t raw = encodeReal8(v);
  for (int b = 7; b >= 0; --b) d.push_back(std::uint8_t((raw >> (8 * b)) & 0xff));
  return d;
}

std::stringstream binaryStream() {
  return std::stringstream(std::ios::in | std::ios::out | std::ios::binary);
}

TEST(GdsRobust, EmptyStreamThrows) {
  auto ss = binaryStream();
  EXPECT_THROW(readGdsii(ss), GdsError);
}

TEST(GdsRobust, TruncatedRecordThrows) {
  auto ss = binaryStream();
  putU16(ss, 100);  // claims 100 bytes, provides none
  putU16(ss, 0x0002);
  EXPECT_THROW(readGdsii(ss), GdsError);
}

TEST(GdsRobust, RecordLengthBelowHeaderThrows) {
  auto ss = binaryStream();
  putU16(ss, 2);  // < 4
  putU16(ss, 0x0002);
  EXPECT_THROW(readGdsii(ss), GdsError);
}

TEST(GdsRobust, ElementOutsideStructureThrows) {
  auto ss = binaryStream();
  putRec(ss, 0x0002, i16s({600}));
  putRec(ss, 0x0800);           // BOUNDARY with no BGNSTR
  putRec(ss, 0x1100);           // ENDEL
  putRec(ss, 0x0400);           // ENDLIB
  EXPECT_THROW(readGdsii(ss), GdsError);
}

TEST(GdsRobust, UndefinedReferenceThrows) {
  auto ss = binaryStream();
  putRec(ss, 0x0002, i16s({600}));
  putRec(ss, 0x0502, i16s({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  putRec(ss, 0x0606, str("TOP"));
  putRec(ss, 0x0A00);
  putRec(ss, 0x1206, str("MISSING"));
  putRec(ss, 0x1003, i16s({0, 0, 0, 0}));
  putRec(ss, 0x1100);
  putRec(ss, 0x0700);
  putRec(ss, 0x0400);
  EXPECT_THROW(readGdsii(ss), GdsError);
}

TEST(GdsRobust, ReferenceCycleThrowsGdsError) {
  CellLibrary lib;
  lib.addCell("A").addInstance({"B", {}, 1, 1, {}, {}});
  lib.addCell("B").addInstance({"A", {}, 1, 1, {}, {}});
  auto ss = binaryStream();
  writeGdsiiHierarchy(ss, lib);
  EXPECT_THROW(readGdsii(ss), GdsError);
}

TEST(GdsRobust, HugeArrayIsRefusedBeforeFlattening) {
  // Flattening it once ended in bad_alloc; the flat polygon count is
  // checked first, against kMaxFlatPolygons.
  auto ss = binaryStream();
  ss << tests::hugeArrayGdsii();
  EXPECT_LE(ss.str().size(), 300u);
  EXPECT_THROW(readGdsii(ss), GdsError);
}

TEST(GdsRobust, NonManhattanAngleThrows) {
  auto ss = binaryStream();
  putRec(ss, 0x0002, i16s({600}));
  putRec(ss, 0x0502, i16s({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  putRec(ss, 0x0606, str("A"));
  putRec(ss, 0x0700);
  putRec(ss, 0x0502, i16s({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  putRec(ss, 0x0606, str("TOP"));
  putRec(ss, 0x0A00);
  putRec(ss, 0x1206, str("A"));
  putRec(ss, 0x1C05, real8(45.0));  // 45 degrees: unsupported
  putRec(ss, 0x1003, i16s({0, 0, 0, 0}));
  putRec(ss, 0x1100);
  putRec(ss, 0x0700);
  putRec(ss, 0x0400);
  EXPECT_THROW(readGdsii(ss), GdsError);
}

TEST(GdsRobust, MagnificationRejected) {
  auto ss = binaryStream();
  putRec(ss, 0x0002, i16s({600}));
  putRec(ss, 0x0502, i16s({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  putRec(ss, 0x0606, str("A"));
  putRec(ss, 0x0700);
  putRec(ss, 0x0502, i16s({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  putRec(ss, 0x0606, str("TOP"));
  putRec(ss, 0x0A00);
  putRec(ss, 0x1206, str("A"));
  putRec(ss, 0x1B05, real8(2.0));  // MAG != 1
  putRec(ss, 0x1003, i16s({0, 0, 0, 0}));
  putRec(ss, 0x1100);
  putRec(ss, 0x0700);
  putRec(ss, 0x0400);
  EXPECT_THROW(readGdsii(ss), GdsError);
}

TEST(GdsRobust, UnknownRecordsSkipped) {
  auto ss = binaryStream();
  putRec(ss, 0x0002, i16s({600}));
  putRec(ss, 0x1F02, i16s({42}));  // unknown record type: must be ignored
  putRec(ss, 0x0502, i16s({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  putRec(ss, 0x0606, str("TOP"));
  putRec(ss, 0x0800);
  putRec(ss, 0x0D02, i16s({1}));
  putRec(ss, 0x0E02, i16s({0}));
  putRec(ss, 0x1003, [] {
    std::vector<std::uint8_t> d;
    for (int v : {0, 0, 10, 0, 10, 10, 0, 10, 0, 0}) {
      const auto u = std::uint32_t(v);
      d.push_back(std::uint8_t(u >> 24));
      d.push_back(std::uint8_t((u >> 16) & 0xff));
      d.push_back(std::uint8_t((u >> 8) & 0xff));
      d.push_back(std::uint8_t(u & 0xff));
    }
    return d;
  }());
  putRec(ss, 0x1100);
  putRec(ss, 0x0700);
  putRec(ss, 0x0400);
  const Layout out = readGdsii(ss);
  EXPECT_EQ(out.polygonCount(), 1u);
}

TEST(GdsRobust, MissingFileThrows) {
  EXPECT_THROW(readGdsiiFile("/nonexistent/nope.gds"), GdsError);
  EXPECT_THROW(readGdsiiHierarchyFile("/nonexistent/nope.gds"), GdsError);
  EXPECT_THROW(writeGdsiiFile("/nonexistent/dir/out.gds", Layout{}),
               GdsError);
}

}  // namespace
}  // namespace hsd::gds
