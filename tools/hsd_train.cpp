// CLI: train a hotspot detector from a clip-set file.
//
//   hsd_train <training_clips.txt> <out_model> [--threads N] [--no-shift]
//             [--no-balance] [--no-feedback] [--single-kernel]
//
// --threads must be a whole number in [0, 1024] (0 = one per core);
// anything else exits 2 naming the flag before the clip set is read.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "args.hpp"
#include "core/trainer.hpp"
#include "engine/run_context.hpp"
#include "engine/tiler.hpp"
#include "gds/ascii.hpp"

using namespace hsd::tools;

int main(int argc, char** argv) {
  using namespace hsd;
  if (!checkArgs(argc, argv, 2, "<training_clips.txt> <out_model>",
                 {{"--threads", "N"}, {"--no-shift"}, {"--no-balance"},
                  {"--no-feedback"}, {"--single-kernel"}}))
    return 2;
  std::size_t threads = 0;
  try {
    threads = engine::wholeNumber("threads",
                                  argDouble(argc, argv, "--threads", 0.0),
                                  engine::RunContext::kMaxThreads);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    const gds::ClipSet set = gds::readClipSetFile(argv[1]);
    core::TrainParams tp;
    tp.clip = set.params;
    tp.enableShift = !hasFlag(argc, argv, "--no-shift");
    tp.balancePopulation = !hasFlag(argc, argv, "--no-balance");
    tp.enableFeedback = !hasFlag(argc, argv, "--no-feedback");
    tp.singleKernel = hasFlag(argc, argv, "--single-kernel");

    engine::RunContext ctx(threads);
    const core::Detector det = core::trainDetector(set.clips, tp, ctx);
    std::ofstream os(argv[2]);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", argv[2]);
      return 1;
    }
    det.save(os);
    std::printf("trained %zu kernels (%zu hs clusters, %zu->%zu nhs "
                "downsample, feedback=%s) in %.1fs -> %s\n",
                det.kernels.size(), det.stats.hotspotClusters,
                det.stats.rawNonHotspots, det.stats.balancedNonHotspots,
                det.hasFeedback ? "yes" : "no", det.stats.trainSeconds,
                argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
