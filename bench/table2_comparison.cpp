// Table II: overall comparison on every benchmark — the Basic single-
// kernel SVM comparator plus our framework at its operating points
// (ours, ours_med, ours_low) and without multithreading (ours_nopara).
//
// The contest winners' binaries cannot be re-run; Basic plays the role of
// the baseline competitor. The reproducible shape: Ours dominates Basic on
// accuracy; ours_med / ours_low trade hit rate for hit/extra ratio;
// ours_nopara matches ours' quality at higher runtime.
#include <chrono>

#include "bench_common.hpp"
#include "core/fuzzy_match.hpp"

namespace {

// The [14]-style fuzzy pattern-matching comparator: same extraction and
// removal stages, matcher instead of the SVM kernels.
hsd::bench::RunResult runFuzzy(const std::vector<hsd::Clip>& training,
                               const hsd::data::TestLayout& test) {
  using namespace hsd;
  bench::RunResult out;
  out.method = "FuzzyPM";
  const auto t0 = std::chrono::steady_clock::now();
  const core::FuzzyMatcher matcher =
      core::FuzzyMatcher::train(training, core::FuzzyMatchParams{});
  out.trainSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto t1 = std::chrono::steady_clock::now();
  const Layer* l = test.layout.findLayer(1);
  const GridIndex index(l->rects(), ClipParams{}.clipSide);
  engine::RunContext ctx(bench::hwThreads());
  std::vector<ClipWindow> flagged;
  for (const ClipWindow& w :
       core::extractCandidateClips(index, core::ExtractParams{}, ctx)) {
    const Clip clip = extractClip({{1, &index}}, w);
    if (matcher.evaluateClip(clip)) flagged.push_back(w);
  }
  const auto reported =
      core::removeRedundantClips(flagged, index, core::RemovalParams{}, ctx);
  out.evalSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();
  out.score = core::scoreReports(reported, test.actualHotspots);
  return out;
}

}  // namespace

int main() {
  using namespace hsd;
  bench::printHeader(
      "Table II: comparison (Basic + fuzzy-matching baselines vs ours)");

  std::vector<bench::Method> methods;
  methods.push_back(bench::makeBasic());
  methods.push_back(bench::makeOurs());
  {
    bench::Method m = bench::makeOurs(0.35);
    m.name = "Ours_med";
    methods.push_back(m);
  }
  {
    bench::Method m = bench::makeOurs(0.8);
    m.name = "Ours_low";
    methods.push_back(m);
  }
  {
    bench::Method m = bench::makeOurs(0.0, 1);
    m.name = "Ours_nopara";
    methods.push_back(m);
  }

  for (const auto& spec : bench::smallSuite()) {
    const data::Benchmark b = data::generateBenchmark(spec);
    bench::printRow(b.name, runFuzzy(b.training.clips, b.test));
    for (const bench::Method& m : methods)
      bench::printRow(b.name, bench::runMethod(m, b.training.clips, b.test));
    std::printf("\n");
  }
  return 0;
}
