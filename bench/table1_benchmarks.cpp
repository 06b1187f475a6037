// Table I: benchmark suite statistics — training hotspot / non-hotspot
// counts, testing-layout hotspot counts, area and process node.
// (Synthetic ICCAD-2012-like suite; see DESIGN.md for the substitution.)
// With `--json-out BENCH_table1.json` also writes one machine-readable
// trajectory record: the suite rows plus the benchmark1 train+eval
// profile (accuracy, runtime, per-stage EngineStats) and git describe —
// the input of bench/run_benches.sh.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"

namespace {

struct SuiteRow {
  std::string training;
  std::size_t hs = 0;
  std::size_t nhs = 0;
  std::string layout;
  std::size_t layoutHotspots = 0;
  double areaUm2 = 0.0;
  std::size_t sites = 0;
  std::string process;
};

std::string toJson(const std::vector<SuiteRow>& rows,
                   const hsd::bench::RunResult& profile) {
  hsd::obs::JsonWriter w = hsd::bench::benchJson("table1");
  w.key("benchmarks").beginArray(true);
  for (const SuiteRow& r : rows) {
    w.beginObject().field("training", r.training).field("hotspots", r.hs);
    w.field("nonHotspots", r.nhs).field("layout", r.layout);
    w.field("layoutHotspots", r.layoutHotspots).field("areaUm2", r.areaUm2);
    w.field("sites", r.sites).field("process", r.process).endObject();
  }
  w.endArray().key("profile").beginObject();
  w.field("benchmark", "benchmark1").field("method", profile.method);
  w.field("accuracy", profile.score.accuracy());
  w.field("hits", profile.score.hits);
  w.field("actualHotspots", profile.score.actualHotspots);
  w.field("extras", profile.score.extras);
  w.field("trainSeconds", profile.trainSec);
  w.field("evalSeconds", profile.evalSec).key("engineStats");
  w.raw(profile.engineStats.empty() ? "null" : profile.engineStats);
  return w.endObject().endObject().str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hsd;
  bench::printHeader("Table I: benchmark statistics");
  const char* jsonOut = bench::argString(argc, argv, "--json-out", nullptr);
  std::printf("%-22s %5s %6s | %-18s %5s %12s %8s %6s\n", "Training data",
              "#hs", "#nhs", "Testing layout", "#hs", "area(um^2)",
              "#sites", "proc");

  const auto specs = data::iccad2012LikeSuite();
  std::vector<SuiteRow> rows;
  data::Benchmark first;  // kept for the blind layout below
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const data::Benchmark b = data::generateBenchmark(specs[i]);
    std::size_t hs = 0;
    for (const Clip& c : b.training.clips)
      hs += c.label() == Label::kHotspot;
    std::printf("%-22s %5zu %6zu | %-18s %5zu %12.0f %8zu %6s\n",
                b.training.name.c_str(), hs, b.training.clips.size() - hs,
                b.test.layout.name().c_str(), b.test.actualHotspots.size(),
                b.test.layout.areaUm2(), b.test.motifSites,
                b.process.c_str());
    rows.push_back({b.training.name, hs, b.training.clips.size() - hs,
                    b.test.layout.name(), b.test.actualHotspots.size(),
                    b.test.layout.areaUm2(), b.test.motifSites, b.process});
    if (i == 0) first = b;
  }

  // The blind layout (scored with benchmark1's training data in Table II
  // of the paper): same generator params as benchmark1, different seed.
  data::GeneratorParams gp;
  gp.dims = data::ProcessDims::node32();
  gp.seed = 999;
  const data::TestLayout blind =
      data::generateTestLayout(gp, 64000, 40000, 70, 0.5, "MX_blind_partial");
  std::printf("%-22s %5s %6s | %-18s %5zu %12.0f %8zu %6s\n", "(benchmark1)",
              "-", "-", blind.layout.name().c_str(),
              blind.actualHotspots.size(), blind.layout.areaUm2(),
              blind.motifSites, "32nm");
  rows.push_back({"(benchmark1)", 0, 0, blind.layout.name(),
                  blind.actualHotspots.size(), blind.layout.areaUm2(),
                  blind.motifSites, "32nm"});
  std::printf("\ncore %lld x %lld nm, clip %lld x %lld nm (contest format)\n",
              static_cast<long long>(ClipParams{}.coreSide),
              static_cast<long long>(ClipParams{}.coreSide),
              static_cast<long long>(ClipParams{}.clipSide),
              static_cast<long long>(ClipParams{}.clipSide));

  // Per-stage engine profile of a full train+eval run on benchmark1, so
  // suite regeneration also tracks where detection time goes.
  std::printf("\nengine stage profile (benchmark1, ours):\n");
  const bench::RunResult r =
      bench::runMethod(bench::makeOurs(), first.training.clips, first.test);
  bench::printRow("benchmark1", r);
  bench::printEngineStats("benchmark1", r);
  if (jsonOut != nullptr && !bench::writeJsonFile(jsonOut, toJson(rows, r)))
    return 1;
  return 0;
}
