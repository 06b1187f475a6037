// Tiling-layer tests (ctest label: tile). Three layers of coverage:
//
//  1. GridTiling / TilePlan unit behavior: row-major ids, half-open seam
//     ownership (total and unique), the halo derived from the clip (ambit
//     + half core rounded up — a halo of just the ambit is NOT enough),
//     and the whole-number check on tiling numbers.
//  2. Tiled evaluateLayout() vs the monolithic path: byte-identical
//     reports (canonicalReport) and identical counters at threads=1 and
//     8, across tile sizes from "clip spans four tiles" to "one tile
//     holds everything", on seam-aligned geometry and on layouts with
//     empty tiles; a warm shared cache serves tiled runs from entries a
//     monolithic run populated (same keys in both modes). The sequence
//     merge is what makes these pass: tile-id order is not anchor order.
//     core::evaluateTiles leaves the caller's context reusable when a
//     helper fails.
//  3. Tiled requests through serve::DetectionServer: fan-out across the
//     context pool returns results byte-identical to untiled requests,
//     repeated tiled submissions hit the shared cache, and a fan-out cut
//     short by its deadline returns every borrowed context.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "engine/cache.hpp"
#include "engine/run_context.hpp"
#include "engine/stats.hpp"
#include "engine/tiler.hpp"
#include "geom/tiling.hpp"
#include "obs/trace.hpp"
#include "obs/trace_id.hpp"
#include "serve/server.hpp"
#include "text/text_cursor.hpp"

namespace hsd::engine {
namespace {

using tests::kClip;

// ---------------------------------------------------------------------------
// GridTiling: deterministic row-major grid with half-open seam ownership.

TEST(GridTilingUnit, OverComputesCeilGridShape) {
  const Rect b{0, 0, 10000, 7000};
  const GridTiling g = GridTiling::over(b, 4000);
  EXPECT_EQ(g.nx, 3u);  // ceil(10000 / 4000)
  EXPECT_EQ(g.ny, 2u);  // ceil(7000 / 4000)
  EXPECT_EQ(g.tileCount(), 6u);
}

TEST(GridTilingUnit, DegenerateBoundsStillYieldOneTile) {
  const GridTiling g = GridTiling::over(Rect{5, 5, 5, 5}, 100);
  EXPECT_EQ(g.tileCount(), 1u);
  EXPECT_EQ(g.ownerOf({5, 5}), 0u);
}

TEST(GridTilingUnit, TileBoxesAreRowMajorAndClampedToBounds) {
  const Rect b{1000, 2000, 10000, 9000};
  const GridTiling g = GridTiling::over(b, 4000);
  ASSERT_EQ(g.nx, 3u);
  ASSERT_EQ(g.ny, 2u);
  // id 0 is the lower-left tile; ids walk x first (row-major).
  EXPECT_EQ(g.tileBox(0), (Rect{1000, 2000, 5000, 6000}));
  EXPECT_EQ(g.tileBox(1), (Rect{5000, 2000, 9000, 6000}));
  EXPECT_EQ(g.tileBox(2), (Rect{9000, 2000, 10000, 6000}));  // x-clamped
  EXPECT_EQ(g.tileBox(3), (Rect{1000, 6000, 5000, 9000}));   // y-clamped
  EXPECT_EQ(g.tileBox(5), (Rect{9000, 6000, 10000, 9000}));
}

TEST(GridTilingUnit, SeamPointsHaveExactlyOneOwner) {
  const Rect b{0, 0, 8000, 8000};
  const GridTiling g = GridTiling::over(b, 4000);  // 2x2
  // Interior points.
  EXPECT_EQ(g.ownerOf({1, 1}), 0u);
  EXPECT_EQ(g.ownerOf({4001, 1}), 1u);
  EXPECT_EQ(g.ownerOf({1, 4001}), 2u);
  EXPECT_EQ(g.ownerOf({4001, 4001}), 3u);
  // A point exactly on an interior seam belongs to the tile above/right
  // of it (half-open tiles), never to two tiles.
  EXPECT_EQ(g.ownerOf({4000, 100}), 1u);
  EXPECT_EQ(g.ownerOf({100, 4000}), 2u);
  EXPECT_EQ(g.ownerOf({4000, 4000}), 3u);  // four-corner point: one owner
  // The bounds' own edges are owned by the first/last row and column —
  // ownership is total over the bounds (and clamps outside them).
  EXPECT_EQ(g.ownerOf({0, 0}), 0u);
  EXPECT_EQ(g.ownerOf({8000, 8000}), 3u);
  EXPECT_EQ(g.ownerOf({-50, 9000}), 2u);
}

TEST(GridTilingUnit, OwnershipMatchesContainingTileBox) {
  // For strictly interior points, the owner's box contains the point.
  const Rect b{-3000, -3000, 9000, 9000};
  const GridTiling g = GridTiling::over(b, 5000);
  for (Coord x = -2999; x < 9000; x += 1357) {
    for (Coord y = -2999; y < 9000; y += 1777) {
      const Rect box = g.tileBox(g.ownerOf({x, y}));
      EXPECT_TRUE(box.lo.x <= x && x <= box.hi.x) << x << "," << y;
      EXPECT_TRUE(box.lo.y <= y && y <= box.hi.y) << x << "," << y;
    }
  }
}

// ---------------------------------------------------------------------------
// TilePlan: the halo derived from the clip, and tile geometry.

TEST(TilePlanUnit, AutoHaloIsTheExactnessMinimum) {
  TilingParams tp;
  tp.tileSize = 6000;
  const Rect b{0, 0, 20000, 20000};
  // The reach of a clip from its anchor: the ambit plus half the core,
  // rounded up when the core side is odd.
  const ClipParams odd{1201, 4801};
  for (const auto& [clip, halo] : {std::pair{kClip, Coord(1800 + 600)},
                                   std::pair{odd, Coord(1800 + 601)}}) {
    EXPECT_EQ(minTileHalo(clip), halo) << clip.coreSide;
    EXPECT_EQ(TilePlan::make(b, tp, clip).halo(), halo) << clip.coreSide;
    EXPECT_GT(halo, clip.ambit());  // strictly beyond ambit
  }
}

TEST(TilePlanUnit, DisabledTilingCannotBePlanned) {
  EXPECT_THROW(TilePlan::make(Rect{0, 0, 20000, 20000}, {}, kClip),
               std::invalid_argument);
}

TEST(TilePlanUnit, ExpandedRegionIsOwnedInflatedByHalo) {
  TilingParams tp;
  tp.tileSize = 5000;
  const TilePlan plan = TilePlan::make(Rect{0, 0, 12000, 12000}, tp, kClip);
  for (std::size_t id = 0; id < plan.tileCount(); ++id) {
    const TileSpec t = plan.tile(id);
    EXPECT_EQ(t.id, id);
    EXPECT_EQ(t.expanded, t.owned.inflated(plan.halo()));
  }
}

// ---------------------------------------------------------------------------
// Tiling numbers from untrusted doubles (CLI flags, query parameters).

TEST(TilingNumbers, WholeNumbersInRangeBuildParams) {
  EXPECT_EQ(wholeNumber("tile-size", 8000, kMaxExactWhole), 8000u);
  EXPECT_EQ(wholeNumber("tile-size", 9007199254740992.0, kMaxExactWhole),
            std::uint64_t(9007199254740992LL));
  EXPECT_EQ(wholeNumber("threads", 1024, 1024), 1024u);
  // Real-valued flags and query parameters parse through
  // text::parseNumber before they reach wholeNumber().
  EXPECT_EQ(text::parseNumber<double>("-0.25"), -0.25);
  EXPECT_EQ(text::parseNumber<double>("8e3"), 8000.0);
}

TEST(TilingNumbers, RejectsFractionsNegativesAndOverflowNamingTheField) {
  const auto message = [](double size) {
    try {
      wholeNumber("tile-size", size, kMaxExactWhole);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  for (const double bad : {0.5, -1.0, 1e300, 9007199254740994.0})
    EXPECT_NE(message(bad).find("'tile-size'"), std::string::npos) << bad;
  EXPECT_THROW(wholeNumber("threads", 1025, 1024), std::invalid_argument);
  EXPECT_THROW(wholeNumber("threads", -1, 1024), std::invalid_argument);
  // One number per token, decimal only: no blanks, no '+', no hex (the
  // C library's conversion read " 1" as 1 and "0x1p3" as 8).
  for (const char* bad : {"", "abc", "1.5x", "1e400", "nan", "inf", " 1",
                          "1 ", "+1", "0x1p3", "0x10"})
    EXPECT_EQ(text::parseNumber<double>(bad), std::nullopt) << bad;
}

// ---------------------------------------------------------------------------
// EngineStats keyed by (stage, tile): roll-ups and JSON key order.

TEST(EngineStatsTiling, RollupSumsTileNamespacedEntries) {
  EngineStats s;
  s.record("eval/svm", 10, 0.25, 0);
  s.record("eval/svm", 5, 0.5, 12);
  s.record("eval/svm", 1, 0.125);  // an untiled record folds in too
  s.record("extract/screen", 3, 0.0625, 0);
  // A name is only a name: a tile-like spelling is not parsed as a tile.
  s.record("tile0/eval/svm", 99, 9.0);

  const StageStats r = s.rollup("eval/svm");
  EXPECT_EQ(r.calls, 3u);
  EXPECT_EQ(r.items, 16u);
  EXPECT_DOUBLE_EQ(r.seconds, 0.875);
  EXPECT_EQ(s.rollup("missing"), StageStats{});

  s.recordCache("eval/verdict", 4, 2, 0, 0);
  s.recordCache("eval/verdict", 1, 3, 1, 1);
  const CacheStats c = s.cacheRollup("eval/verdict");
  EXPECT_EQ(c.hits, 5u);
  EXPECT_EQ(c.misses, 5u);
  EXPECT_EQ(c.evictions, 1u);
}

TEST(EngineStatsTiling, ToJsonAppendsAggregatesAfterRawEntries) {
  // Per-tile entries in tile-id order (not record order), then one
  // roll-up per stage in first-record order; the cache section repeats
  // the pattern. A stage recorded tiled and untiled is written once.
  EngineStats s;
  s.record("eval/svm", 3, 0.0, 1);
  s.record("eval/clip", 1, 0.0, 1);
  s.record("eval/svm", 2, 0.0, 0);
  s.record("eval/svm", 4, 0.0);
  s.record("eval/removal", 6, 0.0);
  s.recordCache("eval/verdict", 1, 2, 0, 1);
  s.recordCache("eval/verdict", 3, 0, 1, 0);
  EXPECT_EQ(s.toJson(),
            R"({"tile0/eval/svm": {"calls": 1, "items": 2, "seconds": 0}, )"
            R"("tile1/eval/svm": {"calls": 1, "items": 3, "seconds": 0}, )"
            R"("tile1/eval/clip": {"calls": 1, "items": 1, "seconds": 0}, )"
            R"("eval/svm": {"calls": 3, "items": 9, "seconds": 0}, )"
            R"("eval/clip": {"calls": 1, "items": 1, "seconds": 0}, )"
            R"("eval/removal": {"calls": 1, "items": 6, "seconds": 0}, )"
            R"("cache/tile0/eval/verdict": )"
            R"({"hits": 3, "misses": 0, "evictions": 1}, )"
            R"("cache/tile1/eval/verdict": )"
            R"({"hits": 1, "misses": 2, "evictions": 0}, )"
            R"("cache/eval/verdict": {"hits": 4, "misses": 2, "evictions": 1}})");
}

TEST(EngineStatsTiling, MonolithicJsonHasNoAggregates) {
  EngineStats s;
  s.record("eval/svm", 2, 0.0);
  s.record("eval/clip", 1, 0.0);
  const std::string json = s.toJson();
  // Exactly one occurrence of each key: no duplicate roll-up entries for
  // untiled runs (byte-compat with the pre-tiling ENGINE_STATS format).
  EXPECT_EQ(json.find("\"eval/svm\""), json.rfind("\"eval/svm\""));
  EXPECT_EQ(json.find("\"eval/clip\""), json.rfind("\"eval/clip\""));
}

TEST(EngineStatsTiling, MergeFromFoldsIntoExistingSlots) {
  EngineStats a;
  a.record("eval/svm", 2, 0.5, 0);

  EngineStats b;
  b.record("eval/svm", 7, 0.25, 1);
  b.recordCache("eval/verdict", 3, 1, 0, 1);
  EngineStats merged;
  merged.mergeFrom(a);
  merged.mergeFrom(b);

  EXPECT_EQ(merged.rollup("eval/svm").items, 9u);
  EXPECT_EQ(merged.cacheRollup("eval/verdict").hits, 3u);
  // Tile order is the table's, not the merge order's.
  EngineStats reversed;
  reversed.mergeFrom(b);
  reversed.mergeFrom(a);
  EXPECT_EQ(reversed.toJson(), merged.toJson());
  const std::string json = merged.toJson();
  EXPECT_LT(json.find("\"tile0/eval/svm\""),
            json.find("\"tile1/eval/svm\""));
}

// ---------------------------------------------------------------------------
// Tiled evaluateLayout vs monolithic: byte identity at every shape.

const tests::DetectorFixture& fx() { return tests::detectorFixture(); }

core::EvalResult runEval(const Layout& layout, const core::EvalParams& p,
                         std::size_t threads,
                         std::shared_ptr<StageCache> cache = nullptr) {
  RunContext ctx(threads);
  if (cache) ctx.attachCache(std::move(cache));
  return core::evaluateLayout(fx().detector, layout, p, ctx);
}

core::EvalParams tiledParams(Coord tileSize) {
  core::EvalParams p;
  p.tiling.tileSize = tileSize;
  return p;
}

TEST(TiledEval, ByteIdenticalToMonolithicAcrossTileSizesAndThreads) {
  const core::EvalResult mono = runEval(fx().test.layout, {}, 1);
  ASSERT_GT(mono.candidateClips, 0u);
  const std::string monoCanon = tests::canonicalReport(mono);

  // 3000 dbu tiles are smaller than one clip window (4800 dbu): every
  // clip spans at least four tiles. 100000 dbu collapses to one tile.
  for (const Coord tileSize : {Coord(3000), Coord(9000), Coord(100000)}) {
    for (const std::size_t threads : {std::size_t(1), std::size_t(8)}) {
      const core::EvalResult tiled =
          runEval(fx().test.layout, tiledParams(tileSize), threads);
      // Exact identity: same windows in the same order, same counters.
      EXPECT_EQ(tiled.reported, mono.reported)
          << "tileSize=" << tileSize << " threads=" << threads;
      EXPECT_EQ(tiled.candidateClips, mono.candidateClips);
      EXPECT_EQ(tiled.flaggedBeforeRemoval, mono.flaggedBeforeRemoval);
      EXPECT_EQ(tests::canonicalReport(tiled), monoCanon);
    }
  }
}

TEST(TiledEval, SeamAlignedGeometryMatchesMonolithic) {
  // Rect corners — hence candidate anchors — sit exactly on tile seams
  // (multiples of the tile size), the worst case for ownership: every
  // seam anchor is claimed by exactly one tile or the merge breaks.
  const Coord tileSize = 4000;
  Layout layout("seam_aligned");
  for (Coord x = 0; x <= 20000; x += tileSize)
    layout.addRect(1, Rect{x, 0, x + 120, 20000});
  for (Coord y = 0; y <= 20000; y += tileSize)
    layout.addRect(1, Rect{0, y, 20000, y + 120});

  const core::EvalResult mono = runEval(layout, {}, 1);
  ASSERT_GT(mono.candidateClips, 0u);
  for (const std::size_t threads : {std::size_t(1), std::size_t(8)}) {
    const core::EvalResult tiled =
        runEval(layout, tiledParams(tileSize), threads);
    EXPECT_EQ(tiled.reported, mono.reported) << "threads=" << threads;
    EXPECT_EQ(tiled.candidateClips, mono.candidateClips);
  }
}

TEST(TiledEval, EmptyTilesAreSkippedAndHarmless) {
  // Geometry only in two opposite corners of a wide extent: most tiles
  // own no anchors and must neither run nor perturb the merge.
  Layout layout("sparse_corners");
  for (Coord i = 0; i < 3; ++i) {
    layout.addRect(1, Rect{i * 400, 0, i * 400 + 150, 5000});
    layout.addRect(1, Rect{40000 + i * 400, 40000, 40000 + i * 400 + 150,
                           45000});
  }

  const core::EvalParams tp = tiledParams(5000);
  const core::TiledLayout tiled =
      core::prepareTiledLayout(layout, fx().detector.params.layer, tp);
  EXPECT_GT(tiled.plan.tileCount(), tiled.work.size())
      << "expected some tiles to own no anchors";
  EXPECT_GT(tiled.anchorCount, 0u);

  const core::EvalResult mono = runEval(layout, {}, 1);
  const core::EvalResult t1 = runEval(layout, tp, 1);
  const core::EvalResult t8 = runEval(layout, tp, 8);
  EXPECT_EQ(t1.reported, mono.reported);
  EXPECT_EQ(t8.reported, mono.reported);
  EXPECT_EQ(t1.candidateClips, mono.candidateClips);
}

TEST(TiledEval, EmptyLayoutYieldsNothing) {
  const Layout empty;
  const core::EvalResult res = runEval(empty, tiledParams(4000), 2);
  EXPECT_TRUE(res.reported.empty());
  EXPECT_EQ(res.candidateClips, 0u);
}

TEST(TiledEval, SharedCacheServesTiledRunsFromMonolithicEntries) {
  // Cache keys are canonical (translation-invariant content hashes, no
  // tile namespace): a monolithic run's entries must serve a tiled run
  // and vice versa.
  auto cache = std::make_shared<StageCache>();
  const core::EvalResult mono = runEval(fx().test.layout, {}, 1, cache);

  RunContext ctx(2);
  ctx.attachCache(cache);
  const core::EvalResult tiled = core::evaluateLayout(
      fx().detector, fx().test.layout, tiledParams(8000), ctx);
  EXPECT_EQ(tiled.reported, mono.reported);

  const CacheStats verdict = ctx.stats().cacheRollup("eval/verdict");
  EXPECT_EQ(verdict.misses, 0u);  // every window already cached
  EXPECT_GT(verdict.hits, 0u);
  const CacheStats screen = ctx.stats().cacheRollup("extract/screen");
  EXPECT_EQ(screen.misses, 0u);
  EXPECT_GT(screen.hits, 0u);
}

TEST(TiledEval, WarmTiledRunIsByteIdenticalAndAllHits) {
  auto cache = std::make_shared<StageCache>();
  const core::EvalParams tp = tiledParams(7000);
  const core::EvalResult cold = runEval(fx().test.layout, tp, 8, cache);

  RunContext ctx(8);
  ctx.attachCache(cache);
  const core::EvalResult warm =
      core::evaluateLayout(fx().detector, fx().test.layout, tp, ctx);
  EXPECT_EQ(tests::canonicalReport(cold), tests::canonicalReport(warm));
  EXPECT_EQ(ctx.stats().cacheRollup("eval/verdict").misses, 0u);
  EXPECT_GT(ctx.stats().cacheRollup("eval/verdict").hits, 0u);
}

TEST(TiledEval, HelperErrorLeavesTheCallersContextReusable) {
  const core::EvalParams tp = tiledParams(6000);
  const core::TiledLayout tiled =
      core::prepareTiledLayout(fx().test.layout, fx().detector.params.layer, tp);
  ASSERT_GT(tiled.work.size(), 1u);

  // The helper fails before it claims a tile: the error reaches the
  // caller, but the caller's context is never cancelled on its behalf.
  RunContext primary(1);
  RunContext failing(1);
  failing.requestCancel();
  RunContext* const withFailingHelper[] = {&primary, &failing};
  EXPECT_THROW(core::evaluateTiles(fx().detector, tiled, tp, withFailingHelper),
               CancelledError);
  EXPECT_FALSE(primary.cancelRequested());
  const core::EvalResult mono = runEval(fx().test.layout, {}, 1);
  EXPECT_EQ(core::evaluateLayout(fx().detector, fx().test.layout, tp, primary)
                .reported,
            mono.reported);

  // An error on the caller's context interrupts every helper.
  RunContext cancelled(1);
  RunContext helper(1);
  cancelled.requestCancel();
  RunContext* const withFailingCaller[] = {&cancelled, &helper};
  EXPECT_THROW(core::evaluateTiles(fx().detector, tiled, tp, withFailingCaller),
               CancelledError);
  EXPECT_TRUE(helper.cancelRequested());
}

// ---------------------------------------------------------------------------
// Serving: tiled requests fan across the pool, results stay identical.

TEST(ServeTiled, TiledRequestMatchesUntiledRequest) {
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.contexts = 3;  // fan-out has idle contexts to borrow
  cfg.threadsPerContext = 2;
  serve::DetectionServer server(cfg);

  core::EvalParams plain;
  auto fut0 = server.submit(fx().detector, fx().test.layout, plain);
  const serve::ServeResult untiled = fut0.get();
  ASSERT_TRUE(untiled.ok()) << untiled.error;

  auto futs = std::vector<std::future<serve::ServeResult>>{};
  for (const Coord tileSize : {Coord(5000), Coord(12000)})
    futs.push_back(server.submit(fx().detector, fx().test.layout,
                                 tiledParams(tileSize)));
  for (auto& f : futs) {
    const serve::ServeResult tiled = f.get();
    ASSERT_TRUE(tiled.ok()) << tiled.error;
    EXPECT_EQ(tiled.result.reported, untiled.result.reported);
    EXPECT_EQ(tiled.result.candidateClips, untiled.result.candidateClips);
    // The request's stats JSON covers every tile (helpers merged back).
    EXPECT_NE(tiled.statsJson.find("tile0/"), std::string::npos);
  }
  // Tiled and untiled requests shared one cache: the later tiled runs
  // were served from entries the first request populated.
  EXPECT_GT(server.stats().cache.hits, 0u);
  server.shutdown();
}

TEST(ServeTiled, SingleContextPoolStillCompletesTiledRequests) {
  // No idle contexts to borrow: the fan-out must degrade to the primary
  // context draining every tile itself, never deadlock.
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.contexts = 1;
  serve::DetectionServer server(cfg);

  auto fut = server.submit(fx().detector, fx().test.layout,
                           tiledParams(6000));
  const serve::ServeResult r = fut.get();
  ASSERT_TRUE(r.ok()) << r.error;

  auto fut2 = server.submit(fx().detector, fx().test.layout, {});
  const serve::ServeResult untiled = fut2.get();
  ASSERT_TRUE(untiled.ok()) << untiled.error;
  EXPECT_EQ(r.result.reported, untiled.result.reported);

  // No geometry on the detector's layer: a plan without work, an empty
  // report, no error.
  const Layout empty;
  const serve::ServeResult none =
      server.submit(fx().detector, empty, tiledParams(6000)).get();
  ASSERT_TRUE(none.ok()) << none.error;
  EXPECT_TRUE(none.result.reported.empty());
  EXPECT_EQ(none.result.candidateClips, 0u);
  server.shutdown();
}

TEST(ServeTiled, ConcurrentTiledRequestsStayIdentical) {
  serve::ServerConfig cfg;
  cfg.workers = 3;
  cfg.contexts = 4;
  cfg.threadsPerContext = 2;
  serve::DetectionServer server(cfg);

  std::vector<std::future<serve::ServeResult>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(server.submit(fx().detector, fx().test.layout,
                                 tiledParams(6000)));
  const serve::ServeResult first = futs[0].get();
  ASSERT_TRUE(first.ok()) << first.error;
  for (std::size_t i = 1; i < futs.size(); ++i) {
    const serve::ServeResult r = futs[i].get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.result.reported, first.result.reported) << "request " << i;
  }
  server.shutdown();
}

TEST(ServeTiled, DeadlineMidFanOutReturnsEveryBorrowedContext) {
  serve::ServerConfig cfg;
  cfg.workers = 3;
  cfg.contexts = 3;  // a tiled request borrows both idle contexts
  cfg.enableCache = false;  // the timed run must not be cut short by hits
  cfg.tracer = std::make_shared<obs::TraceRecorder>();
  auto server = std::make_unique<serve::DetectionServer>(cfg);
  const core::EvalParams tp = tiledParams(3000);

  // A deadline at a fifth of a full tiled run lands during the fan-out.
  const serve::ServeResult full =
      server->submit(fx().detector, fx().test.layout, tp).get();
  ASSERT_TRUE(full.ok()) << full.error;
  const auto deadline =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(full.runSeconds / 5));
  const serve::ServeResult timedOut =
      server->submit(fx().detector, fx().test.layout, tp, deadline).get();
  EXPECT_EQ(timedOut.status, serve::RequestStatus::kTimeout)
      << serve::toString(timedOut.status);

  // The helpers went back to the pool: a lone tiled request borrows them
  // again, so its tiles run on more threads than the worker's own.
  const obs::TraceId probeId = obs::makeTraceId();
  const serve::ServeResult probe =
      server
          ->submit(fx().detector, fx().test.layout, tp, {}, nullptr, nullptr,
                   probeId)
          .get();
  ASSERT_TRUE(probe.ok()) << probe.error;
  std::set<std::uint32_t> tids;
  for (const auto& se : cfg.tracer->snapshot())
    if (se.event.trace == probeId) tids.insert(se.tid);
  EXPECT_GE(tids.size(), 2u) << "no helper context was borrowed";

  // Three requests at once, tiled and untiled, all complete.
  std::vector<std::future<serve::ServeResult>> futs;
  for (const bool tiledRun : {true, false, true})
    futs.push_back(server->submit(fx().detector, fx().test.layout,
                                  tiledRun ? tp : core::EvalParams{}));
  for (auto& f : futs) {
    if (f.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
      (void)server.release();  // its stuck worker would hang the destructor
      FAIL() << "a request never completed";
    }
    const serve::ServeResult r = f.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.result.reported, full.result.reported);
  }
  server->shutdown();
}

// ---------------------------------------------------------------------------
// Stats determinism: the JSON's key sequence and counters do not depend on
// the thread count or on how serving spreads tiles over contexts.

/// `json` with every "seconds" value blanked: what must be deterministic.
std::string withoutSeconds(const std::string& json) {
  static const std::regex kSeconds(R"("seconds": [^,}]+)");
  return std::regex_replace(json, kSeconds, "\"seconds\": _");
}

/// True when no key of the (flat) stats JSON appears twice.
bool keysUnique(const std::string& json) {
  static const std::regex kKey(R"re("([^"]+)": \{)re");
  std::set<std::string> seen;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), kKey);
       it != std::sregex_iterator(); ++it)
    if (!seen.insert((*it)[1].str()).second) return false;
  return !seen.empty();
}

TEST(TiledStats, KeysAndCountersIndependentOfThreadsAndContexts) {
  // No cache: cache hit counts legitimately depend on which tile reaches
  // a shared window first; stage calls and items do not.
  const core::EvalParams tp = tiledParams(6000);
  std::string reference;
  for (const std::size_t threads : {std::size_t(1), std::size_t(8)}) {
    RunContext ctx(threads);
    core::evaluateLayout(fx().detector, fx().test.layout, tp, ctx);
    const std::string json = withoutSeconds(ctx.stats().toJson());
    EXPECT_TRUE(keysUnique(json)) << json;
    if (reference.empty()) reference = json;
    EXPECT_EQ(json, reference) << "threads=" << threads;
  }
  ASSERT_NE(reference.find("\"tile0/eval/svm\""), std::string::npos);
  ASSERT_NE(reference.find("\"tile1/eval/svm\""), std::string::npos);

  for (const std::size_t contexts : {std::size_t(1), std::size_t(4)}) {
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.contexts = contexts;
    cfg.threadsPerContext = 2;
    cfg.enableCache = false;
    serve::DetectionServer server(cfg);
    const serve::ServeResult r =
        server.submit(fx().detector, fx().test.layout, tp).get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(withoutSeconds(r.statsJson), reference)
        << "contexts=" << contexts;
    server.shutdown();
  }
}

}  // namespace
}  // namespace hsd::engine
