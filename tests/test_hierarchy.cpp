// Hierarchical layout tests: origin transforms, D8 composition, cell
// flattening (instances, arrays, nesting), and GDSII hierarchy round trip.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "gds/gdsii.hpp"
#include "geom/rectset.hpp"
#include "layout/hierarchy.hpp"

namespace hsd {
namespace {

TEST(OriginTransform, KnownMappings) {
  const Point p{3, 1};
  EXPECT_EQ(applyOrigin(Orient::R0, p), Point(3, 1));
  EXPECT_EQ(applyOrigin(Orient::R90, p), Point(-1, 3));
  EXPECT_EQ(applyOrigin(Orient::R180, p), Point(-3, -1));
  EXPECT_EQ(applyOrigin(Orient::R270, p), Point(1, -3));
  EXPECT_EQ(applyOrigin(Orient::MX, p), Point(3, -1));
  EXPECT_EQ(applyOrigin(Orient::MY, p), Point(-3, 1));
  EXPECT_EQ(applyOrigin(Orient::MXR90, p), Point(1, 3));
  EXPECT_EQ(applyOrigin(Orient::MYR90, p), Point(-1, -3));
}

TEST(OriginTransform, CompositionTableIsClosedAndCorrect) {
  const Point probe{5, 2};
  for (const Orient a : kAllOrients) {
    for (const Orient b : kAllOrients) {
      const Orient c = composeOrient(a, b);
      EXPECT_EQ(applyOrigin(c, probe),
                applyOrigin(a, applyOrigin(b, probe)))
          << toString(a) << " * " << toString(b);
    }
  }
}

TEST(CellTransform, ComposeMatchesSequentialApplication) {
  const CellTransform outer{Orient::R90, {100, 50}};
  const CellTransform inner{Orient::MX, {-20, 7}};
  const CellTransform both = outer.compose(inner);
  for (const Point p : {Point{0, 0}, Point{13, -4}, Point{-7, 29}})
    EXPECT_EQ(both.apply(p), outer.apply(inner.apply(p)));
}

TEST(CellLibrary, FlattenSimpleInstance) {
  CellLibrary lib;
  Cell& unit = lib.addCell("UNIT");
  unit.addRect(1, {0, 0, 10, 20});
  Cell& top = lib.addCell("TOP");
  top.addInstance({"UNIT", {Orient::R0, {100, 0}}, 1, 1, {}, {}});
  top.addInstance({"UNIT", {Orient::R90, {0, 100}}, 1, 1, {}, {}});
  lib.setTop("TOP");

  const Layout flat = lib.flatten();
  EXPECT_EQ(flat.polygonCount(), 2u);
  EXPECT_EQ(unionArea(flat.findLayer(1)->rects()), 2 * 200);
  EXPECT_EQ(lib.flatPolygonCount(), 2u);
}

TEST(CellLibrary, FlattenArray) {
  CellLibrary lib;
  Cell& unit = lib.addCell("U");
  unit.addRect(2, {0, 0, 50, 50});
  Cell& top = lib.addCell("TOP");
  top.addInstance({"U", {Orient::R0, {0, 0}}, 4, 3, {100, 0}, {0, 200}});
  lib.setTop("TOP");

  const Layout flat = lib.flatten();
  EXPECT_EQ(flat.polygonCount(), 12u);
  EXPECT_EQ(lib.flatPolygonCount(), 12u);
  const auto bb = flat.bbox();
  ASSERT_TRUE(bb.has_value());
  EXPECT_EQ(*bb, Rect(0, 0, 300 + 50, 400 + 50));
}

TEST(CellLibrary, NestedHierarchyComposesTransforms) {
  CellLibrary lib;
  Cell& leaf = lib.addCell("LEAF");
  leaf.addRect(1, {0, 0, 10, 20});
  Cell& mid = lib.addCell("MID");
  mid.addInstance({"LEAF", {Orient::R90, {50, 0}}, 1, 1, {}, {}});
  Cell& top = lib.addCell("TOP");
  top.addInstance({"MID", {Orient::R180, {0, 0}}, 1, 1, {}, {}});
  lib.setTop("TOP");

  const Layout flat = lib.flatten();
  ASSERT_EQ(flat.polygonCount(), 1u);
  // LEAF rect under R90+(50,0): [30,50]x[0,10]; under R180: [-50,-30]x[-10,0].
  EXPECT_EQ(flat.findLayer(1)->rects()[0], Rect(-50, -10, -30, 0));
}

TEST(CellLibrary, MissingCellThrows) {
  CellLibrary lib;
  Cell& top = lib.addCell("TOP");
  top.addInstance({"NOPE", {}, 1, 1, {}, {}});
  EXPECT_THROW(lib.flatten(), std::runtime_error);
  EXPECT_THROW(lib.flatPolygonCount(), std::runtime_error);
}

TEST(CellLibrary, FlatCountOfSharedChainIsLinearNotExponential) {
  // C<i> places C<i-1> twice: 2^60 flat polygons from 61 cells. Without
  // memoization the count would take 2^60 calls.
  CellLibrary lib;
  lib.addCell("C0").addRect(1, {0, 0, 10, 10});
  for (int i = 1; i <= 60; ++i) {
    Cell& c = lib.addCell("C" + std::to_string(i));
    const std::string child = "C" + std::to_string(i - 1);
    c.addInstance({child, {}, 1, 1, {}, {}});
    c.addInstance({child, {Orient::R0, {20, 0}}, 1, 1, {}, {}});
  }
  lib.setTop("C60");
  EXPECT_EQ(lib.flatPolygonCount(), std::size_t(1) << 60);
}

TEST(CellLibrary, FlatCountSaturatesInsteadOfWrapping) {
  // Three nested 30000 x 30000 AREFs: 30000^6 ~ 7e26 polygons, past
  // SIZE_MAX, which the count must report instead of a wrapped value.
  CellLibrary lib;
  lib.addCell("A0").addRect(1, {0, 0, 10, 10});
  for (int i = 1; i <= 3; ++i)
    lib.addCell("A" + std::to_string(i))
        .addInstance({"A" + std::to_string(i - 1), {}, 30000, 30000,
                      {20, 0}, {0, 20}});
  lib.setTop("A3");
  EXPECT_EQ(lib.flatPolygonCount(), std::numeric_limits<std::size_t>::max());
  lib.setTop("A2");  // 30000^4 = 8.1e17 still fits
  EXPECT_EQ(lib.flatPolygonCount(), std::size_t(810000000000000000ull));
}

TEST(CellLibrary, CycleDetected) {
  CellLibrary lib;
  Cell& a = lib.addCell("A");
  a.addInstance({"B", {}, 1, 1, {}, {}});
  Cell& b = lib.addCell("B");
  b.addInstance({"A", {}, 1, 1, {}, {}});
  lib.setTop("A");
  EXPECT_THROW(lib.flatten(), std::runtime_error);
}

TEST(GdsiiHierarchy, RoundTripPreservesStructure) {
  CellLibrary lib;
  Cell& unit = lib.addCell("UNIT");
  unit.addRect(1, {0, 0, 100, 200});
  unit.addPolygon(2, Polygon({{0, 0}, {60, 0}, {60, 30}, {30, 30},
                              {30, 60}, {0, 60}}));
  Cell& top = lib.addCell("TOP");
  top.addInstance({"UNIT", {Orient::MX, {500, 500}}, 1, 1, {}, {}});
  top.addInstance({"UNIT", {Orient::R270, {-100, 0}}, 3, 2, {300, 0},
                   {0, 400}});
  lib.setTop("TOP");

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  gds::writeGdsiiHierarchy(ss, lib);
  const CellLibrary back = gds::readGdsiiHierarchy(ss);

  EXPECT_EQ(back.cellCount(), 2u);
  EXPECT_EQ(back.top(), "TOP");
  ASSERT_NE(back.findCell("UNIT"), nullptr);
  EXPECT_EQ(back.findCell("TOP")->instances().size(), 2u);
  // Structural equivalence: the flattened layouts match exactly.
  const Layout a = lib.flatten();
  const Layout b = back.flatten();
  EXPECT_EQ(a.polygonCount(), b.polygonCount());
  EXPECT_EQ(unionArea(a.findLayer(1)->rects()),
            unionArea(b.findLayer(1)->rects()));
  EXPECT_EQ(unionArea(a.findLayer(2)->rects()),
            unionArea(b.findLayer(2)->rects()));
  EXPECT_EQ(a.bbox(), b.bbox());
}

TEST(GdsiiHierarchy, FlatReaderMatchesHierarchyFlatten) {
  CellLibrary lib;
  Cell& u = lib.addCell("U");
  u.addRect(1, {0, 0, 40, 40});
  Cell& top = lib.addCell("T");
  top.addInstance({"U", {Orient::MYR90, {200, 100}}, 2, 2, {100, 0},
                   {0, 100}});
  lib.setTop("T");

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  gds::writeGdsiiHierarchy(ss, lib);
  const Layout flat = gds::readGdsii(ss);
  EXPECT_EQ(flat.polygonCount(), 4u);
  EXPECT_EQ(unionArea(flat.findLayer(1)->rects()),
            unionArea(lib.flatten().findLayer(1)->rects()));
}

TEST(GdsiiHierarchy, AllOrientationsSurviveRoundTrip) {
  for (const Orient o : kAllOrients) {
    CellLibrary lib;
    Cell& u = lib.addCell("U");
    u.addRect(1, {0, 0, 30, 70});  // asymmetric probe
    Cell& top = lib.addCell("T");
    top.addInstance({"U", {o, {11, -7}}, 1, 1, {}, {}});
    lib.setTop("T");
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    gds::writeGdsiiHierarchy(ss, lib);
    const CellLibrary back = gds::readGdsiiHierarchy(ss);
    EXPECT_EQ(back.findCell("T")->instances()[0].transform.orient, o)
        << toString(o);
    EXPECT_EQ(back.flatten().findLayer(1)->rects(),
              lib.flatten().findLayer(1)->rects())
        << toString(o);
  }
}

}  // namespace
}  // namespace hsd
