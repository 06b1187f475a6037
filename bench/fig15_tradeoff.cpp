// Fig. 15: trade-off between accuracy (hit rate) and false alarm (extra
// count). Pooled training sample across benchmarks, pooled testing
// layouts, decision-threshold sweep.
//
// Reproducible shape: the extra count stays low and flat through the
// ~80-85% hit-rate band and grows steeply (roughly linearly) as the hit
// rate is pushed past ~90%.
#include <random>

#include "bench_common.hpp"

int main() {
  using namespace hsd;
  bench::printHeader("Fig. 15: accuracy vs false alarm trade-off");

  // Pool training clips from all benchmarks (random sample, as the paper
  // pools all MX benchmarks and samples 5%).
  auto suite = bench::smallSuite();
  std::vector<Clip> pooledTraining;
  std::vector<data::TestLayout> tests;
  std::mt19937_64 rng(5150);
  for (auto& spec : suite) {
    spec.sites = 40;
    spec.width = 44000;
    spec.height = 42000;
    const data::Benchmark b = data::generateBenchmark(spec);
    for (const Clip& c : b.training.clips)
      if (std::uniform_real_distribution<double>(0, 1)(rng) < 0.5)
        pooledTraining.push_back(c);
    tests.push_back(b.test);
  }

  const bench::Method ours = bench::makeOurs();
  engine::RunContext ctx(ours.threads);
  const core::Detector det =
      core::trainDetector(pooledTraining, ours.train, ctx);
  std::printf("pooled training: %zu clips -> %zu kernels\n\n",
              pooledTraining.size(), det.kernels.size());

  std::printf("%8s %10s %10s %10s\n", "bias", "hit-rate", "#extra", "#hit");
  for (const double bias :
       {2.0, 1.5, 1.2, 1.0, 0.8, 0.6, 0.4, 0.2, 0.0, -0.2, -0.4, -0.7,
        -1.0}) {
    core::EvalParams ep = ours.eval;
    ep.decisionBias = bias;
    std::size_t hits = 0, actuals = 0, extras = 0;
    for (const data::TestLayout& t : tests) {
      const core::EvalResult res = core::evaluateLayout(det, t.layout, ep, ctx);
      const core::Score s = core::scoreReports(res.reported, t.actualHotspots);
      hits += s.hits;
      actuals += s.actualHotspots;
      extras += s.extras;
    }
    std::printf("%8.2f %9.1f%% %10zu %10zu\n", bias,
                actuals ? 100.0 * double(hits) / double(actuals) : 0.0,
                extras, hits);
  }
  return 0;
}
