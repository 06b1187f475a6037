// Tiled-evaluation scaling: the spatial tiling layer (engine/tiler.hpp +
// core::evaluateLayout's tiled mode) against the monolithic path, on one
// trained detector and one generated layout.
//
// Three measurements, all stamped into BENCH_tiling.json via
// `--json-out` (wired into bench/run_benches.sh):
//
//   baselines — monolithic evaluation at threads=1 and threads=8;
//   grid      — tileSize x threads matrix: per-config run time, tile
//               counts, speedup (median over median) vs both baselines, and
//               the non-negotiable `identical` bit (tiled report ==
//               monolithic report, window for window);
//   cache     — a cold+warm tiled pair over one shared StageCache: the
//               warm run's hit rate (tiled runs share the monolithic
//               cache keys, so warm should be ~1.0).
//
// Every run time is a bench::measure: one warm-up run, then at least
// kMinIters runs and kBudgetSeconds, reported as median, MAD and CV with
// the sample count. Speedups are honest wall-clock ratios on THIS
// machine; `hwThreads` is recorded so single-core CI numbers are not
// mistaken for the multi-core scaling the tiling layer exists to
// provide. The numbers are diagnostics, not claim evidence.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/cache.hpp"
#include "engine/run_context.hpp"
#include "engine/tiler.hpp"
#include "obs/json.hpp"

namespace {

using namespace hsd;

constexpr std::size_t kMinIters = 10;
constexpr double kBudgetSeconds = 1.0;

struct Measured {
  bench::Measurement timing;
  core::EvalResult result;  ///< last run's result (identity checks)
};

Measured measureEval(const core::Detector& det, const Layout& layout,
                     const core::EvalParams& ep, std::size_t threads) {
  Measured out;
  engine::RunContext ctx(threads);
  out.timing = bench::measure(
      [&] { out.result = core::evaluateLayout(det, layout, ep, ctx); }, 1,
      kMinIters, kBudgetSeconds);
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
  bench::Measurement timing;
  bool identical = false;
  double speedupVsMono1 = 0.0;
  double speedupVsMono8 = 0.0;
};

void jsonTiming(hsd::obs::JsonWriter& w, const bench::Measurement& t) {
  w.beginObject().field("median", t.median).field("mad", t.mad);
  w.field("cv", t.cv).field("n", t.seconds.size()).endObject();
}

}  // namespace

int main(int argc, char** argv) {
  bench::printHeader("Tiled evaluation scaling (tiles x threads)");
  const char* jsonOut = bench::argString(argc, argv, "--json-out", nullptr);

  const auto spec = bench::smallSuite()[0];
  const data::Benchmark b = data::generateBenchmark(spec);
  engine::RunContext trainCtx(bench::hwThreads());
  const core::Detector det =
      core::trainDetector(b.training.clips, bench::makeOurs().train, trainCtx);
  const core::EvalParams baseEp = bench::makeOurs(0.0, 1).eval;

  std::printf("  layout %lldx%lld dbu, hwThreads=%zu, min iters=%zu\n",
              static_cast<long long>(spec.width),
              static_cast<long long>(spec.height), bench::hwThreads(),
              kMinIters);

  const Measured mono1 = measureEval(det, b.test.layout, baseEp, 1);
  const Measured mono8 = measureEval(det, b.test.layout, baseEp, 8);
  std::printf("  mono  threads=1 median %.3fs (cv %.2f)   threads=8 median "
              "%.3fs (cv %.2f)\n",
              mono1.timing.median, mono1.timing.cv, mono8.timing.median,
              mono8.timing.cv);

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
      const Measured m = measureEval(det, b.test.layout, ep, threads);
      gp.timing = m.timing;
      gp.identical = sameReport(m.result, mono1.result);
      gp.speedupVsMono1 =
          m.timing.median > 0.0 ? mono1.timing.median / m.timing.median : 0.0;
      gp.speedupVsMono8 =
          m.timing.median > 0.0 ? mono8.timing.median / m.timing.median : 0.0;
      std::printf("  tile %6lld (%2zu tiles, %2zu active) threads=%zu  "
                  "median %.3fs (mad %.3fs, cv %.2f, n %zu)  x%.2f vs mono1  "
                  "identical=%s\n",
                  static_cast<long long>(tileSize), gp.tiles, gp.activeTiles,
                  threads, gp.timing.median, gp.timing.mad, gp.timing.cv,
                  gp.timing.seconds.size(), gp.speedupVsMono1,
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
    obs::JsonWriter w = bench::benchJson("tiling_scaling");
    w.field("hwThreads", bench::hwThreads()).field("minIters", kMinIters);
    w.field("budgetSeconds", kBudgetSeconds);
    w.key("layout").beginObject().field("width", spec.width);
    w.field("height", spec.height).endObject();
    w.key("baselines").beginObject().key("mono1");
    jsonTiming(w, mono1.timing);
    w.key("mono8");
    jsonTiming(w, mono8.timing);
    w.endObject().key("grid").beginArray(true);
    for (const GridPoint& gp : grid) {
      w.beginObject().field("tileSize", gp.tileSize).field("tiles", gp.tiles);
      w.field("activeTiles", gp.activeTiles).field("threads", gp.threads);
      w.key("runSeconds");
      jsonTiming(w, gp.timing);
      w.field("identical", gp.identical);
      w.field("speedupVsMono1", gp.speedupVsMono1);
      w.field("speedupVsMono8", gp.speedupVsMono8).endObject();
    }
    w.endArray().key("cache").beginObject();
    w.field("coldHitRate", coldHitRate).field("warmHitRate", warmHitRate);
    w.field("warmIdentical", warmIdentical).endObject();
    w.field("allIdentical", allIdentical).endObject();
    if (!bench::writeJsonFile(jsonOut, w.str())) return 1;
  }
  return allIdentical ? 0 : 1;
}
