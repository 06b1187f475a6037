// Hierarchical design flow: build an arrayed design as a cell library
// (the structure of the contest's Array_benchmark layouts), write it as
// hierarchical GDSII with AREF records, read it back, flatten, and run
// hotspot detection over the flattened geometry.
//
//   $ ./hierarchical_design
#include <cstdio>
#include <sstream>

#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "gds/gdsii.hpp"
#include "layout/hierarchy.hpp"

int main() {
  using namespace hsd;

  // A unit tile: safe wire fabric with one risky U-shape motif inside.
  data::GeneratorParams gp;
  gp.seed = 77;
  data::Rng rng(9);
  CellLibrary lib;
  Cell& tile = lib.addCell("TILE");
  for (const Rect& r : data::wireFabric({0, 0, 1400, 8000}, gp.dims.safeWidth,
                                        gp.dims.safeWidth + gp.dims.safeSpace))
    tile.addRect(gp.layer, r);
  Cell& motif = lib.addCell("MOTIF");
  for (const Rect& r :
       data::makeMotif(data::MotifKind::kUShape, data::Risk::kRisky,
                       data::AmbitStyle::kEmpty, gp.dims, gp.clip, rng))
    motif.addRect(gp.layer, r);

  // Top: an 8x3 tile array with two motif placements (one mirrored).
  Cell& top = lib.addCell("TOP");
  top.addInstance({"TILE", {Orient::R0, {0, 0}}, 16, 3, {1400, 0}, {0, 8200}});
  top.addInstance({"MOTIF", {Orient::R0, {5600, 8600}}, 1, 1, {}, {}});
  top.addInstance({"MOTIF", {Orient::MY, {22000, 300}}, 1, 1, {}, {}});
  lib.setTop("TOP");

  std::printf("cell library: %zu cells, %zu flat polygons\n",
              lib.cellCount(), lib.flatPolygonCount());

  // Hierarchical GDSII round trip.
  std::stringstream gds(std::ios::in | std::ios::out | std::ios::binary);
  gds::writeGdsiiHierarchy(gds, lib);
  const CellLibrary back = gds::readGdsiiHierarchy(gds);
  const Layout flat = back.flatten();
  std::printf("GDSII round trip: %zu cells -> flattened %zu polygons, "
              "%.0f um^2\n",
              back.cellCount(), flat.polygonCount(), flat.areaUm2());

  // Detect over the flattened design.
  data::TrainingTargets t;
  t.hotspots = 30;
  t.nonHotspots = 120;
  const auto training = data::generateTrainingSet(gp, t);
  engine::RunContext ctx;
  const core::Detector det =
      core::trainDetector(training.clips, core::TrainParams{}, ctx);
  const core::EvalResult res =
      core::evaluateLayout(det, flat, core::EvalParams{}, ctx);
  std::printf("detection: %zu candidates, %zu reported hotspot clips\n",
              res.candidateClips, res.reported.size());

  // The two motif placements should both be found.
  std::size_t nearMotifs = 0;
  for (const ClipWindow& w : res.reported) {
    for (const Point origin : {Point{5600, 8600}, Point{22000, 300}}) {
      const Rect zone{origin.x, origin.y, origin.x + 4800, origin.y + 4800};
      if (w.core.overlaps(zone)) {
        ++nearMotifs;
        break;
      }
    }
  }
  std::printf("%zu reports land on the two placed motifs\n", nearMotifs);
  return nearMotifs >= 2 ? 0 : 1;
}
