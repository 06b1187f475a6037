// Tiled-evaluation scaling: the spatial tiling layer (engine/tiler.hpp +
// core::evaluateLayout's tiled mode) against the monolithic path, on one
// trained detector and one generated layout.
//
// Three measurements, all stamped into BENCH_tiling.json via
// `--json-out` (wired into bench/run_benches.sh):
//
//   baselines — monolithic evaluation at threads=1 and threads=8
//               (p50/p95/p99 over iterations);
//   grid      — tileSize x threads matrix: per-config latency
//               percentiles, tile counts, speedup vs both baselines, and
//               the non-negotiable `identical` bit (tiled report ==
//               monolithic report, window for window);
//   cache     — a cold+warm tiled pair over one shared StageCache: the
//               warm run's hit rate (tiled runs share the monolithic
//               cache keys, so warm should be ~1.0).
//
// Speedups are honest wall-clock ratios on THIS machine; `hwThreads`
// is recorded so single-core CI numbers are not mistaken for the
// multi-core scaling the tiling layer exists to provide.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <locale>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/cache.hpp"
#include "engine/run_context.hpp"
#include "engine/tiler.hpp"
#include "obs/json.hpp"

namespace {

using namespace hsd;

struct Timing {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct Measured {
  Timing timing;
  core::EvalResult result;  ///< last iteration's result (identity checks)
};

Measured measure(const core::Detector& det, const Layout& layout,
                 const core::EvalParams& ep, std::size_t threads,
                 std::size_t iters) {
  Measured out;
  std::vector<double> secs;
  secs.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) {
    engine::RunContext ctx(threads);
    const auto t0 = std::chrono::steady_clock::now();
    out.result = core::evaluateLayout(det, layout, ep, ctx);
    secs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  out.timing = {bench::quantile(secs, 0.50), bench::quantile(secs, 0.95),
                bench::quantile(secs, 0.99)};
  return out;
}

bool sameReport(const core::EvalResult& a, const core::EvalResult& b) {
  return a.reported == b.reported && a.candidateClips == b.candidateClips &&
         a.flaggedBeforeRemoval == b.flaggedBeforeRemoval;
}

struct GridPoint {
  Coord tileSize = 0;
  std::size_t tiles = 0;       ///< plan tile count
  std::size_t activeTiles = 0; ///< tiles owning at least one anchor
  std::size_t threads = 0;
  Timing timing;
  bool identical = false;
  double speedupVsMono1 = 0.0;
  double speedupVsMono8 = 0.0;
};

void jsonTiming(std::ostringstream& os, const Timing& t) {
  os << "{\"p50\": " << t.p50 << ", \"p95\": " << t.p95
     << ", \"p99\": " << t.p99 << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bench::printHeader("Tiled evaluation scaling (tiles x threads)");
  const char* jsonOut = bench::argString(argc, argv, "--json-out", nullptr);
  constexpr std::size_t kIters = 3;

  const auto spec = bench::smallSuite()[0];
  const data::Benchmark b = data::generateBenchmark(spec);
  engine::RunContext trainCtx(bench::hwThreads());
  const core::Detector det =
      core::trainDetector(b.training.clips, bench::makeOurs().train, trainCtx);
  const core::EvalParams baseEp = bench::makeOurs(0.0, 1).eval;

  std::printf("  layout %lldx%lld dbu, hwThreads=%zu, iters=%zu\n",
              static_cast<long long>(spec.width),
              static_cast<long long>(spec.height), bench::hwThreads(), kIters);

  const Measured mono1 = measure(det, b.test.layout, baseEp, 1, kIters);
  const Measured mono8 = measure(det, b.test.layout, baseEp, 8, kIters);
  std::printf("  mono  threads=1 p50 %.3fs   threads=8 p50 %.3fs\n",
              mono1.timing.p50, mono8.timing.p50);

  std::vector<GridPoint> grid;
  for (const Coord tileSize : {spec.width / 4, spec.width / 2}) {
    core::EvalParams ep = baseEp;
    ep.tiling.tileSize = tileSize;
    const core::TiledLayout plan =
        core::prepareTiledLayout(b.test.layout, det.params.layer, ep);
    for (const std::size_t threads : {std::size_t(1), std::size_t(2),
                                      std::size_t(8)}) {
      GridPoint gp;
      gp.tileSize = tileSize;
      gp.tiles = plan.plan.tileCount();
      gp.activeTiles = plan.work.size();
      gp.threads = threads;
      const Measured m = measure(det, b.test.layout, ep, threads, kIters);
      gp.timing = m.timing;
      gp.identical = sameReport(m.result, mono1.result);
      gp.speedupVsMono1 =
          m.timing.p50 > 0.0 ? mono1.timing.p50 / m.timing.p50 : 0.0;
      gp.speedupVsMono8 =
          m.timing.p50 > 0.0 ? mono8.timing.p50 / m.timing.p50 : 0.0;
      std::printf("  tile %6lld (%2zu tiles, %2zu active) threads=%zu  "
                  "p50 %.3fs  x%.2f vs mono1  identical=%s\n",
                  static_cast<long long>(tileSize), gp.tiles, gp.activeTiles,
                  threads, gp.timing.p50, gp.speedupVsMono1,
                  gp.identical ? "true" : "false");
      grid.push_back(gp);
    }
  }

  // Cache probe: cold tiled run populates, warm tiled run should be
  // (nearly) all hits — tiled and monolithic runs share cache keys.
  core::EvalParams cachedEp = baseEp;
  cachedEp.tiling.tileSize = spec.width / 4;
  auto cache = std::make_shared<engine::StageCache>();
  double coldHitRate = 0.0;
  double warmHitRate = 0.0;
  bool warmIdentical = false;
  {
    engine::RunContext ctx(2);
    ctx.attachCache(cache);
    core::evaluateLayout(det, b.test.layout, cachedEp, ctx);
    const engine::CacheStats c = ctx.stats().cacheRollup("eval/verdict");
    const std::size_t lookups = c.hits + c.misses;
    coldHitRate = lookups ? double(c.hits) / double(lookups) : 0.0;
  }
  {
    engine::RunContext ctx(2);
    ctx.attachCache(cache);
    const core::EvalResult warm =
        core::evaluateLayout(det, b.test.layout, cachedEp, ctx);
    const engine::CacheStats c = ctx.stats().cacheRollup("eval/verdict");
    const std::size_t lookups = c.hits + c.misses;
    warmHitRate = lookups ? double(c.hits) / double(lookups) : 0.0;
    warmIdentical = sameReport(warm, mono1.result);
  }
  std::printf("  cache cold hit rate %.2f, warm hit rate %.2f, "
              "warm identical=%s\n",
              coldHitRate, warmHitRate, warmIdentical ? "true" : "false");

  bool allIdentical = warmIdentical;
  for (const GridPoint& gp : grid) allIdentical = allIdentical && gp.identical;
  std::printf("TILING_IDENTICAL %s\n", allIdentical ? "true" : "false");

  if (jsonOut != nullptr) {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os.precision(6);
    os << std::fixed;
    os << "{\"bench\": \"tiling_scaling\", \"git\": \""
       << obs::jsonEscape(bench::gitDescribe())
       << "\", \"hwThreads\": " << bench::hwThreads()
       << ", \"iters\": " << kIters << ", \"layout\": {\"width\": "
       << spec.width << ", \"height\": " << spec.height
       << "}, \"baselines\": {\"mono1\": ";
    jsonTiming(os, mono1.timing);
    os << ", \"mono8\": ";
    jsonTiming(os, mono8.timing);
    os << "}, \"grid\": [";
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const GridPoint& gp = grid[i];
      if (i != 0) os << ",";
      os << "\n{\"tileSize\": " << gp.tileSize << ", \"tiles\": " << gp.tiles
         << ", \"activeTiles\": " << gp.activeTiles
         << ", \"threads\": " << gp.threads << ", \"runSeconds\": ";
      jsonTiming(os, gp.timing);
      os << ", \"identical\": " << (gp.identical ? "true" : "false")
         << ", \"speedupVsMono1\": " << gp.speedupVsMono1
         << ", \"speedupVsMono8\": " << gp.speedupVsMono8 << "}";
    }
    os << "\n], \"cache\": {\"coldHitRate\": " << coldHitRate
       << ", \"warmHitRate\": " << warmHitRate << ", \"warmIdentical\": "
       << (warmIdentical ? "true" : "false")
       << "}, \"allIdentical\": " << (allIdentical ? "true" : "false")
       << "}\n";
    if (!bench::writeJsonFile(jsonOut, os.str())) return 1;
  }
  return allIdentical ? 0 : 1;
}
