// The paper's opening motivation, demonstrated: design-rule checking is
// not enough. We sweep generated clips, keep only the DRC-CLEAN ones, and
// show that a meaningful fraction of them still fail lithography — and
// that the trained ML detector catches most of those, which a rule deck
// cannot.
//
//   $ ./drc_vs_ml
#include <cstdio>

#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "drc/drc.hpp"
#include "litho/litho.hpp"

int main() {
  using namespace hsd;

  data::GeneratorParams gp;
  gp.seed = 2013;  // DAC'13

  // A rule deck at the synthetic process's risky limits: everything the
  // fab can express as simple width/space rules.
  drc::DrcRules rules;
  rules.minWidth = gp.dims.riskyWidth;   // 105 nm
  rules.minSpace = gp.dims.riskySpace;   // 110 nm

  // Train the detector on an independent training set.
  data::TrainingTargets t;
  t.hotspots = 40;
  t.nonHotspots = 160;
  const auto training = data::generateTrainingSet(gp, t);
  engine::RunContext ctx;
  const core::Detector det =
      core::trainDetector(training.clips, core::TrainParams{}, ctx);

  // Fresh evaluation clips.
  gp.seed = 4242;
  t.hotspots = 60;
  t.nonHotspots = 240;
  const auto eval = data::generateTrainingSet(gp, t);

  std::size_t drcClean = 0, cleanButHotspot = 0, mlCaught = 0;
  std::size_t drcDirty = 0, dirtyHotspot = 0;
  for (const Clip& c : eval.clips) {
    const auto violations =
        drc::checkRects(c.localCoreRects(gp.layer), rules, 1);
    const bool hotspot = c.label() == Label::kHotspot;
    if (violations.empty()) {
      ++drcClean;
      if (hotspot) {
        ++cleanButHotspot;
        if (det.evaluateClip(c)) ++mlCaught;
      }
    } else {
      ++drcDirty;
      dirtyHotspot += hotspot;
    }
  }

  std::printf("evaluated %zu clips against a %lld/%lld nm width/space rule "
              "deck:\n",
              eval.clips.size(), (long long)rules.minWidth,
              (long long)rules.minSpace);
  std::printf("  DRC-dirty clips: %zu (%zu of them are litho hotspots)\n",
              drcDirty, dirtyHotspot);
  std::printf("  DRC-clean clips: %zu\n", drcClean);
  std::printf("  ... of which %zu STILL fail lithography "
              "(rule decks can't see them)\n",
              cleanButHotspot);
  if (cleanButHotspot > 0)
    std::printf("  ... and the ML detector catches %zu of those (%.0f%%)\n",
                mlCaught, 100.0 * double(mlCaught) / double(cleanButHotspot));
  return 0;
}
