// CLI: generate a synthetic benchmark to disk.
//
//   hsd_genbench <out_dir> [--bench N] [--seed S] [--hs N] [--nhs N]
//                [--width NM] [--height NM] [--sites N]
//
// Writes <out_dir>/training_clips.txt, <out_dir>/layout.gds and
// <out_dir>/golden_hotspots.txt. Every number is a whole number in
// [0, 2^53] (--bench in 1..5); anything else exits 2 naming the flag.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "args.hpp"
#include "data/generator.hpp"
#include "engine/tiler.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"

namespace {

/// The whole number after `flag` (`def` when absent).
std::uint64_t argWhole(int argc, char** argv, const char* flag,
                       std::uint64_t def) {
  return hsd::engine::wholeNumber(
      flag + 2, hsd::tools::argDouble(argc, argv, flag, double(def)),
      hsd::engine::kMaxExactWhole);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hsd;
  if (!tools::checkArgs(argc, argv, 1, "<out_dir>",
                        {{"--bench", "1..5"}, {"--seed", "S"}, {"--hs", "N"},
                         {"--nhs", "N"}, {"--width", "NM"},
                         {"--height", "NM"}, {"--sites", "N"}}))
    return 2;
  const std::string dir = argv[1];
  const auto specs = data::iccad2012LikeSuite();
  data::BenchmarkSpec spec;
  try {
    const std::uint64_t bench = argWhole(argc, argv, "--bench", 1);
    if (bench < 1 || bench > specs.size()) {
      std::fprintf(stderr, "error: --bench must be 1..%zu\n", specs.size());
      return 2;
    }
    spec = specs[bench - 1];
    spec.seed = argWhole(argc, argv, "--seed", spec.seed);
    spec.targets.hotspots = argWhole(argc, argv, "--hs", spec.targets.hotspots);
    spec.targets.nonHotspots =
        argWhole(argc, argv, "--nhs", spec.targets.nonHotspots);
    spec.width = Coord(argWhole(argc, argv, "--width", spec.width));
    spec.height = Coord(argWhole(argc, argv, "--height", spec.height));
    spec.sites = argWhole(argc, argv, "--sites", spec.sites);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    const data::Benchmark b = data::generateBenchmark(spec);
    gds::writeClipSetFile(dir + "/training_clips.txt", b.training);
    gds::writeGdsiiFile(dir + "/layout.gds", b.test.layout);
    gds::writeWindowListFile(dir + "/golden_hotspots.txt",
                             b.test.actualHotspots, ClipParams{});
    std::size_t hs = 0;
    for (const Clip& c : b.training.clips)
      hs += c.label() == Label::kHotspot;
    std::printf("%s: %zu training clips (%zu hs / %zu nhs), layout %.0f "
                "um^2, %zu golden hotspots\n",
                b.name.c_str(), b.training.clips.size(), hs,
                b.training.clips.size() - hs, b.test.layout.areaUm2(),
                b.test.actualHotspots.size());
    std::printf("wrote %s/{training_clips.txt, layout.gds, "
                "golden_hotspots.txt}\n",
                dir.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
