// Closing the DFM loop: detect hotspots with the trained ML framework,
// correct the reported clips with rule-based OPC, and re-verify with the
// lithography simulator — the "detected and corrected before mask
// synthesis" flow of the paper's introduction.
//
//   $ ./hotspot_fix
#include <cstdio>

#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "litho/opc.hpp"

int main() {
  using namespace hsd;

  // Train a detector on a synthetic set.
  data::GeneratorParams gp;
  gp.seed = 77;
  data::TrainingTargets targets;
  targets.hotspots = 30;
  targets.nonHotspots = 120;
  const auto training = data::generateTrainingSet(gp, targets);
  engine::RunContext ctx;
  const core::Detector det =
      core::trainDetector(training.clips, core::TrainParams{}, ctx);

  // Scan a testing layout.
  const data::TestLayout test =
      data::generateTestLayout(gp, 30000, 30000, 25, 0.7);
  const core::EvalResult res =
      core::evaluateLayout(det, test.layout, core::EvalParams{}, ctx);
  std::printf("detector reported %zu hotspot clips on a %.0f um^2 layout\n",
              res.reported.size(), test.layout.areaUm2());

  // For each reported clip, verify with the simulator; when it confirms a
  // printability failure, apply rule-based OPC and re-check.
  const litho::LithoSimulator sim(gp.litho);
  litho::OpcRules rules;
  rules.minWidth = 170;
  rules.minSpace = 170;
  const auto& rects = test.layout.findLayer(gp.layer)->rects();
  const GridIndex idx(rects, 4800);

  std::size_t confirmed = 0, fixed = 0, residual = 0;
  for (const ClipWindow& w : res.reported) {
    std::vector<Rect> local;
    for (const std::size_t i : idx.query(w.clip))
      local.push_back(idx.rects()[i].intersect(w.clip));
    const litho::FixOutcome out =
        litho::detectAndFix(sim, local, w.core, w.clip, rules);
    if (!out.before.hotspot()) continue;  // ML false alarm
    ++confirmed;
    if (out.fixed())
      ++fixed;
    else
      ++residual;
  }
  std::printf("simulator confirmed %zu of them as printability failures\n",
              confirmed);
  std::printf("rule-based OPC fixed %zu, %zu need manual work\n", fixed,
              residual);
  if (confirmed > 0)
    std::printf("fix rate: %.0f%%\n", 100.0 * double(fixed) / double(confirmed));
  return 0;
}
