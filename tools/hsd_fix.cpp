// CLI: detect-and-correct. Run a trained detector over a layout, confirm
// the reports with the lithography simulator, apply rule-based OPC inside
// each confirmed clip, and write the corrected layout back as GDSII.
//
//   hsd_fix <model> <layout.gds> <out_layout.gds> [--min-width NM]
//           [--min-space NM] [--bias B]
//
// --bias must be a finite number and --min-width/--min-space whole
// numbers in [0, 2^53]; anything else exits 2 naming the flag before any
// file is read.
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "args.hpp"
#include "core/evaluator.hpp"
#include "engine/tiler.hpp"
#include "gds/gdsii.hpp"
#include "litho/opc.hpp"

using namespace hsd::tools;

int main(int argc, char** argv) {
  using namespace hsd;
  if (!checkArgs(argc, argv, 3, "<model> <layout.gds> <out_layout.gds>",
                 {{"--min-width", "NM"}, {"--min-space", "NM"},
                  {"--bias", "B"}}))
    return 2;
  core::EvalParams ep;
  litho::OpcRules rules;
  try {
    ep.decisionBias = argDouble(argc, argv, "--bias", 0.0);
    rules.minWidth = Coord(engine::wholeNumber(
        "min-width", argDouble(argc, argv, "--min-width", 170),
        engine::kMaxExactWhole));
    rules.minSpace = Coord(engine::wholeNumber(
        "min-space", argDouble(argc, argv, "--min-space", 170),
        engine::kMaxExactWhole));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    std::ifstream ms(argv[1]);
    if (!ms) {
      std::fprintf(stderr, "error: cannot open model %s\n", argv[1]);
      return 1;
    }
    const core::Detector det = core::Detector::load(ms);
    const Layout layout = gds::readGdsiiFile(argv[2]);

    ep.extract.clip = det.params.clip;
    ep.removal.clip = det.params.clip;
    engine::RunContext ctx;
    const core::EvalResult res = core::evaluateLayout(det, layout, ep, ctx);

    const litho::LithoSimulator sim;

    const Layer* l = layout.findLayer(det.params.layer);
    if (l == nullptr) {
      std::fprintf(stderr, "error: layout has no layer %d\n",
                   int(det.params.layer));
      return 1;
    }
    std::vector<Rect> rects = l->rects();
    GridIndex idx(rects, det.params.clip.clipSide);

    // Correct confirmed clips; edits are applied to the affected rects
    // (identified by index) and collected into the output geometry.
    std::map<std::size_t, Rect> edits;
    std::size_t confirmed = 0, fixedCnt = 0;
    for (const ClipWindow& w : res.reported) {
      std::vector<std::size_t> ids = idx.query(w.clip);
      std::vector<Rect> local;
      local.reserve(ids.size());
      for (const std::size_t i : ids)
        local.push_back(rects[i].intersect(w.clip));
      const litho::FixOutcome out =
          litho::detectAndFix(sim, local, w.core, w.clip, rules);
      if (!out.before.hotspot()) continue;
      ++confirmed;
      if (!out.fixed()) continue;
      ++fixedCnt;
      for (std::size_t k = 0; k < ids.size(); ++k) {
        // Merge the corrected piece back: replace the in-window part.
        if (out.opc.corrected[k] != local[k])
          edits[ids[k]] = out.opc.corrected[k].unite(
              rects[ids[k]]);  // conservative: grow-only merge
      }
    }

    Layout corrected(layout.name() + "_opc");
    for (std::size_t i = 0; i < rects.size(); ++i) {
      const auto it = edits.find(i);
      corrected.addRect(det.params.layer,
                        it == edits.end() ? rects[i] : it->second);
    }
    gds::writeGdsiiFile(argv[3], corrected);
    std::printf("%zu reported, %zu litho-confirmed, %zu fixed -> %s\n",
                res.reported.size(), confirmed, fixedCnt, argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
