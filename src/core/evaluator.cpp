#include "core/evaluator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/scorer.hpp"
#include "engine/arena.hpp"
#include "engine/cache.hpp"
#include "engine/pipeline.hpp"
#include "geom/hashing.hpp"
#include "obs/log.hpp"
#include "obs/model_stats.hpp"
#include "obs/trace_id.hpp"

namespace hsd::core {

namespace {

using LayerIndex = std::vector<std::pair<LayerId, const GridIndex*>>;

/// Stage-name hash of the per-window verdict cache (the memoized output of
/// the eval/features -> eval/svm -> eval/feedback chain).
constexpr std::uint64_t kVerdictStage = hashString("eval/verdict");

/// Content hash of a clip: window dimensions plus the window-local (i.e.
/// translation-invariant) geometry of every layer. Two windows anywhere on
/// the layout with identical content share this hash — and therefore one
/// cached verdict.
std::uint64_t clipContentHash(const Clip& clip) {
  const ClipWindow& w = clip.window();
  std::uint64_t h = hashCombine(hashCoord(w.clip.width()),
                                hashCoord(w.clip.height()));
  for (const LayerId id : clip.layerIds()) {
    h = hashCombine(h, hashMix(id));
    h = hashCombine(h, hashRectsUnordered(clip.localClipRects(id)));
  }
  return h;
}

/// Config component of verdict keys: everything besides window content
/// that can change a verdict — the whole trained detector, the decision
/// bias, and the feedback toggle.
std::uint64_t verdictConfig(const Detector& det, const EvalParams& p) {
  std::uint64_t h = hashString("eval/verdict/v1");
  h = hashCombine(h, det.fingerprint());
  h = hashCombine(h, hashDouble(p.decisionBias));
  h = hashCombine(h, hashMix(p.useFeedback ? 1 : 0));
  return h;
}

/// A candidate clip in flight through the evaluation stages.
struct EvalItem {
  ClipWindow win;
  Clip clip;
  svm::FeatureVector coreFeat;
  engine::CacheKey key;       ///< verdict cache key (set when caching)
  std::int8_t verdict = -1;   ///< -1 unknown, 0/1 cached verdict
};

/// The Fig. 3 right-half scoring stages, decomposed so each step is
/// separately timed and batched; eval/svm scores through the one
/// kernel-major scorer (core/scorer.hpp) that Detector::evaluateClip also
/// uses. With a StageCache attached to the context, the clip stage looks
/// up the cached verdict per window and the downstream stages skip all
/// computation for hits — warm runs stay byte-identical to cold runs
/// because a verdict is a pure function of its key.
struct EvalStages {
  engine::Stage<ClipWindow, EvalItem> clip;
  engine::Stage<EvalItem, EvalItem> features;
  engine::Stage<EvalItem, EvalItem> kernels;
  engine::Stage<EvalItem, ClipWindow> feedback;
};

/// `tile` is the tile the stage and cache stats are recorded under. The
/// verdict cache key has no tile: content hashes are translation
/// invariant, so tiled and monolithic runs (and different tiles) share
/// one verdict cache.
EvalStages makeEvalStages(const Detector& det, const LayerIndex& layers,
                          const EvalParams& p,
                          std::size_t tile = engine::kUntiled) {
  EvalStages s;
  s.clip = engine::Stage<ClipWindow, EvalItem>{
      "eval/clip",
      // The verdict config hashes the whole detector: computed on the
      // first batch that has a cache to key, never on an uncached run.
      [&det, &p, &layers, tile, cfg = std::optional<std::uint64_t>()](
          engine::RunContext& ctx, std::vector<ClipWindow>&& in) mutable {
        engine::StageCache* const cache = ctx.cache();
        if (cache != nullptr && !cfg) cfg = verdictConfig(det, p);
        std::vector<EvalItem> out(in.size());
        std::atomic<std::size_t> hits{0};
        std::atomic<std::size_t> misses{0};
        ctx.parallelFor(in.size(), [&](std::size_t i) {
          EvalItem& it = out[i];
          it.win = in[i];
          it.clip = extractClip(layers, in[i]);
          if (cache == nullptr) return;
          it.key = engine::CacheKey{kVerdictStage, *cfg,
                                    clipContentHash(it.clip)};
          if (const std::optional<bool> v = cache->find(it.key)) {
            hits.fetch_add(1, std::memory_order_relaxed);
            it.verdict = *v ? 1 : 0;
          } else {
            misses.fetch_add(1, std::memory_order_relaxed);
          }
        });
        if (cache != nullptr)
          ctx.stats().recordCache("eval/verdict", hits, misses, 0, tile);
        return out;
      },
      tile};
  s.features = engine::Stage<EvalItem, EvalItem>{
      "eval/features",
      [&det](engine::RunContext& ctx, std::vector<EvalItem>&& in) {
        ctx.parallelFor(in.size(), [&](std::size_t i) {
          if (in[i].verdict >= 0) return;  // cached: nothing to compute
          in[i].coreFeat = buildFeatureVector(
              CorePattern::fromCore(in[i].clip, det.params.layer),
              det.params.features);
        });
        return std::move(in);
      },
      tile};
  s.kernels = engine::Stage<EvalItem, EvalItem>{
      "eval/svm",
      [&det, bias = p.decisionBias, tile](engine::RunContext& ctx,
                                          std::vector<EvalItem>&& in) {
        engine::StageCache* const cache = ctx.cache();
        obs::ModelStatsRecorder* const ms = ctx.modelStats();
        const Coord half = det.params.clip.coreSide / 2;
        std::vector<char> keep(in.size(), 0);
        std::vector<std::size_t> pending;
        std::vector<const svm::FeatureVector*> feats;
        for (std::size_t i = 0; i < in.size(); ++i) {
          if (in[i].verdict >= 0) {
            keep[i] = in[i].verdict == 1;
          } else {
            pending.push_back(i);
            feats.push_back(&in[i].coreFeat);
          }
        }
        // A flagged clip belongs to its first flagging kernel; an
        // unflagged one to the kernel that came closest (ScoreMode).
        const std::vector<KernelScore> scores =
            scoreKernels(ctx, det.kernels, feats, ScoreMode::kFirstFlag, bias);
        std::atomic<std::size_t> evictions{0};
        ctx.parallelFor(pending.size(), [&](std::size_t j) {
          const EvalItem& it = in[pending[j]];
          const KernelScore& sc = scores[j];
          if (ms != nullptr && !det.kernels.empty()) {
            ms->record(sc.kernel, sc.decision, sc.flagged);
            if (ms->shouldCapture(sc.decision - bias))
              ms->capture(sc.kernel, sc.decision, it.win.core.lo.x + half,
                          it.win.core.lo.y + half, clipContentHash(it.clip));
          }
          if (!sc.flagged && cache != nullptr) {
            // The final verdict is already known: the feedback kernel can
            // only reclaim *flagged* clips, never promote unflagged ones.
            evictions.fetch_add(cache->insert(it.key, false),
                                std::memory_order_relaxed);
          }
          keep[pending[j]] = sc.flagged;  // verdict stays -1: feedback decides
        });
        if (cache != nullptr)
          ctx.stats().recordCache("eval/verdict", 0, 0, evictions, tile);
        std::vector<EvalItem> out;
        out.reserve(in.size());
        for (std::size_t i = 0; i < in.size(); ++i)
          if (keep[i]) out.push_back(std::move(in[i]));
        return out;
      },
      tile};
  s.feedback = engine::Stage<EvalItem, ClipWindow>{
      "eval/feedback",
      [&det, useFeedback = p.useFeedback, tile](
          engine::RunContext& ctx, std::vector<EvalItem>&& in) {
        engine::StageCache* const cache = ctx.cache();
        obs::ModelStatsRecorder* const ms = ctx.modelStats();
        const Coord half = det.params.clip.coreSide / 2;
        std::vector<std::optional<ClipWindow>> tmp(in.size());
        std::atomic<std::size_t> evictions{0};
        ctx.parallelFor(in.size(), [&](std::size_t i) {
          EvalItem& it = in[i];
          if (it.verdict >= 0) {
            if (it.verdict == 1) tmp[i] = it.win;
            return;
          }
          bool hot = true;
          if (useFeedback && det.hasFeedback) {
            const svm::FeatureVector fb = buildFeatureVector(
                CorePattern::fromClip(it.clip, det.params.layer),
                det.params.feedbackFeatures);
            engine::ArenaScope scope(engine::threadScratch());
            const std::span<double> x =
                scope.arena().allocSpan<double>(det.feedbackScaler.dim());
            det.feedbackScaler.transformInto(fb, x.data());
            // decisionFrom(x) > 0 is exactly predictFrom(x) == 1 (see
            // svm.cpp); the raw margin additionally feeds the recorder's
            // feedback pseudo-cluster.
            const double d = det.feedbackModel.decisionFrom(x);
            if (!(d > 0.0))
              hot = false;  // reclaimed by the ambit-aware kernel
            if (ms != nullptr) {
              ms->record(ms->feedbackSlot(), d, hot);
              if (ms->shouldCapture(d))
                ms->capture(ms->feedbackSlot(), d, it.win.core.lo.x + half,
                            it.win.core.lo.y + half, clipContentHash(it.clip));
            }
          }
          if (cache != nullptr)
            evictions.fetch_add(cache->insert(it.key, hot),
                                std::memory_order_relaxed);
          if (hot) tmp[i] = it.win;
        });
        if (cache != nullptr)
          ctx.stats().recordCache("eval/verdict", 0, 0, evictions, tile);
        std::vector<ClipWindow> out;
        out.reserve(in.size());
        for (std::optional<ClipWindow>& o : tmp)
          if (o.has_value()) out.push_back(*o);
        return out;
      },
      tile};
  return s;
}

EvalResult finishEval(const GridIndex& index, std::vector<ClipWindow> hits,
                      const EvalParams& p, engine::RunContext& ctx,
                      EvalResult res,
                      std::chrono::steady_clock::time_point t0) {
  // Removal is a serial epilogue; honor a cancel/deadline that landed
  // during the last pipeline batch before starting it.
  ctx.throwIfCancelled();
  res.flaggedBeforeRemoval = hits.size();
  res.reported = p.useRemoval
                     ? removeRedundantClips(hits, index, p.removal, ctx)
                     : std::move(hits);
  res.evalSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

/// The one streaming pipeline from anchors to hits, for the monolithic run
/// and for every tile: screen over `index`, a tally of the screen
/// survivors into `candidates`, then clip, features, svm and feedback,
/// all recorded under `tile`. Extraction chains straight into scoring,
/// so the candidate list never materializes.
std::vector<ClipWindow> scanAnchors(const Detector& det,
                                    const GridIndex& index,
                                    std::vector<Point> anchors,
                                    const EvalParams& p,
                                    engine::RunContext& ctx, std::size_t tile,
                                    std::size_t& candidates) {
  engine::Stage<Point, ClipWindow> screen = screenStage(index, p.extract, tile);
  engine::Stage<ClipWindow, ClipWindow> tap{
      "extract/candidates",
      [&candidates](engine::RunContext&, std::vector<ClipWindow>&& b) {
        candidates += b.size();
        return std::move(b);
      },
      tile};
  const LayerIndex layers{{det.params.layer, &index}};
  EvalStages s = makeEvalStages(det, layers, p, tile);
  return engine::runPipeline(ctx, std::move(anchors), screen, tap, s.clip,
                             s.features, s.kernels, s.feedback);
}

}  // namespace

std::uint64_t EvalParams::fingerprint() const {
  std::uint64_t h = hashString("EvalParams/v1");
  h = hashCombine(h, extract.fingerprint());
  h = hashCombine(h, removal.fingerprint());
  h = hashCombine(h, hashDouble(decisionBias));
  h = hashCombine(h, hashMix((useFeedback ? 1u : 0u) |
                             (useRemoval ? 2u : 0u)));
  return h;
}

EvalResult evaluateCandidates(const Detector& det, const GridIndex& index,
                              const std::vector<ClipWindow>& candidates,
                              const EvalParams& p, engine::RunContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  ctx.throwIfCancelled();
  EvalResult res;
  res.candidateClips = candidates.size();

  const LayerIndex layers{{det.params.layer, &index}};
  EvalStages s = makeEvalStages(det, layers, p);
  std::vector<ClipWindow> hits = engine::runPipeline(
      ctx, candidates, s.clip, s.features, s.kernels, s.feedback);
  return finishEval(index, std::move(hits), p, ctx, std::move(res), t0);
}

TiledLayout prepareTiledLayout(const Layout& layout, LayerId layer,
                               const EvalParams& p) {
  TiledLayout t;
  const Layer* l = layout.findLayer(layer);
  std::vector<Rect> rects =
      l == nullptr ? std::vector<Rect>{} : l->rects();
  const std::optional<Rect> bb = boundingBox(rects.begin(), rects.end());
  t.plan =
      engine::TilePlan::make(bb.value_or(Rect{}), p.tiling, p.extract.clip);
  t.index = GridIndex(std::move(rects), p.extract.clip.clipSide);

  // The monolithic anchor stream, enumerated exactly once: the sequence
  // number is an anchor's position in it, and the merge sorts hits back
  // into this order. Partitioning keys on the ownership rule, so every
  // anchor lands in exactly one tile's work list.
  const std::vector<Point> anchors =
      candidateAnchors(t.index, p.extract.clip.coreSide);
  t.anchorCount = anchors.size();
  // Ordered map keyed by tile id: memory stays proportional to non-empty
  // tiles (a tiny tileSize over a big layout implies a huge, mostly
  // empty grid) and work comes out in tile-id order.
  std::map<std::size_t, std::vector<std::pair<std::uint64_t, Point>>> buckets;
  for (std::size_t i = 0; i < anchors.size(); ++i)
    buckets[t.plan.ownerOf(anchors[i])].emplace_back(i, anchors[i]);
  t.work.reserve(buckets.size());
  for (auto& [id, owned] : buckets)
    t.work.push_back({id, std::move(owned)});
  return t;
}

TileEvalResult evaluateTile(const Detector& det, const TiledLayout& tiled,
                            std::size_t workIndex, const EvalParams& p,
                            engine::RunContext& ctx) {
  const TiledLayout::Work& w = tiled.work[workIndex];
  ctx.throwIfCancelled();
  // Re-install the context's request id: during serve-side tile fan-out
  // this runs on a *borrowed* helper context's pool workers, whose
  // threads have no ambient id of their own.
  const obs::ScopedTraceId traceScope(
      ctx.traceId().valid() ? ctx.traceId() : obs::currentTraceId());
  ctx.log(obs::LogLevel::kDebug, "core", "tile eval start",
          {"tile", w.tileId}, {"anchors", w.anchors.size()});

  // Local geometry slice: every *unclipped* rect overlapping the
  // halo-expanded tile, in global relative order. halo >= minTileHalo
  // guarantees any clip window of an owned anchor lies inside the
  // expanded region, so each window's rect set — and hence its screen
  // verdict, content hash, features and kernel scores, all of which are
  // query-order independent — equals the monolithic run's.
  std::vector<std::size_t> ids =
      tiled.index.query(tiled.plan.tile(w.tileId).expanded);
  std::sort(ids.begin(), ids.end());
  std::vector<Rect> slice;
  slice.reserve(ids.size());
  for (const std::size_t i : ids) slice.push_back(tiled.index.rects()[i]);
  const GridIndex local(std::move(slice), p.extract.clip.clipSide);

  TileEvalResult out;
  std::vector<Point> anchors;
  anchors.reserve(w.anchors.size());
  for (const auto& [seq, a] : w.anchors) anchors.push_back(a);
  const std::vector<ClipWindow> hits = scanAnchors(
      det, local, std::move(anchors), p, ctx, w.tileId, out.candidateClips);

  // Tag each hit with its global sequence number. Every stage keeps its
  // input order, so hits come in owned-anchor order and one forward walk
  // finds each hit's anchor by the inverse of anchorWindow: core.lo +
  // coreSide/2 (exact in integer dbu).
  const Coord half = p.extract.clip.coreSide / 2;
  auto owned = w.anchors.begin();
  out.hits.reserve(hits.size());
  for (const ClipWindow& win : hits) {
    const Point a{win.core.lo.x + half, win.core.lo.y + half};
    while (owned != w.anchors.end() && owned->second != a) ++owned;
    if (owned == w.anchors.end())
      throw std::logic_error(
          "evaluateTile: hit window does not invert to an owned anchor");
    out.hits.push_back({owned->first, win});
  }
  ctx.log(obs::LogLevel::kDebug, "core", "tile eval done", {"tile", w.tileId},
          {"hits", out.hits.size()});
  return out;
}

std::vector<TileEvalResult> evaluateTiles(
    const Detector& det, const TiledLayout& tiled, const EvalParams& p,
    std::span<engine::RunContext* const> contexts) {
  if (contexts.empty())
    throw std::invalid_argument("evaluateTiles: no context to run on");
  const std::size_t n = tiled.work.size();
  std::vector<TileEvalResult> tiles(n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written once, by the thread that set failed
  // The first error becomes the result; any error stops all claiming and
  // interrupts the helpers' in-flight tiles. contexts[0] is left alone:
  // the caller owns it and may reuse it.
  const auto fail = [&] {
    if (!failed.exchange(true)) error = std::current_exception();
    for (engine::RunContext* const c : contexts.subspan(1))
      c->requestCancel();
  };
  // `loops` claim loops on one context, writing index-stable result slots
  // so the outcome never depends on which loop claims which tile. Several
  // loops run on the context's pool, so each tile's stages run inline on
  // the loop's worker; a single loop runs on the calling thread, whose
  // stages may then use the whole pool.
  const auto run = [&](engine::RunContext& c, std::size_t loops) {
    try {
      c.parallelFor(
          loops,
          [&](std::size_t) {
            try {
              for (std::size_t i = next++; !failed && i < n; i = next++)
                tiles[i] = evaluateTile(det, tiled, i, p, c);
            } catch (...) {
              fail();
            }
          },
          1);
    } catch (...) {
      fail();  // a cancelled context's parallelFor starts no loop
    }
  };

  // Claim loops per context, contexts[0] first, until the cap is spent.
  std::size_t left =
      p.tiling.tileThreads == 0 ? n : std::min(n, p.tiling.tileThreads);
  const std::size_t own = std::min(contexts[0]->threadCount(), left);
  left -= own;
  std::vector<std::thread> helpers;
  for (engine::RunContext* const c : contexts.subspan(1)) {
    const std::size_t loops = std::min(c->threadCount(), left);
    if (loops == 0) break;
    left -= loops;
    helpers.emplace_back([&run, c, loops] { run(*c, loops); });
  }
  run(*contexts[0], own);
  for (std::thread& h : helpers) h.join();
  for (engine::RunContext* const c : contexts.subspan(1))
    contexts[0]->stats().mergeFrom(c->stats());
  if (error) std::rethrow_exception(error);
  return tiles;
}

EvalResult finishTiledEval(const TiledLayout& tiled,
                           std::vector<TileEvalResult>&& tiles,
                           const EvalParams& p, engine::RunContext& ctx,
                           std::chrono::steady_clock::time_point t0) {
  EvalResult res;
  std::vector<engine::TileHit> hits;
  for (const TileEvalResult& t : tiles) {
    res.candidateClips += t.candidateClips;
    hits.insert(hits.end(), t.hits.begin(), t.hits.end());
  }
  // Anchor sequence numbers are unique (one owner per anchor), so this
  // sort reproduces the monolithic hit stream whatever the tile order.
  std::ranges::sort(hits, {}, &engine::TileHit::seq);
  std::vector<ClipWindow> merged;
  merged.reserve(hits.size());
  for (const engine::TileHit& h : hits) merged.push_back(h.win);
  // Removal runs *globally* over the merged, monolithic-order hit stream
  // against the global index: it is order-dependent (sequential prune)
  // and seam-crossing (gravity shifts, covering merges), so running it
  // per tile would change reports.
  return finishEval(tiled.index, std::move(merged), p, ctx, std::move(res),
                    t0);
}

EvalResult evaluateLayout(const Detector& det, const Layout& layout,
                          const EvalParams& p, engine::RunContext& ctx) {
  // Make the context's request id the calling thread's ambient trace id
  // for the whole evaluation: stage spans, parallelFor chunk spans, cache
  // spans and log records all correlate without touching any signature.
  const obs::ScopedTraceId traceScope(
      ctx.traceId().valid() ? ctx.traceId() : obs::currentTraceId());
  const auto t0 = std::chrono::steady_clock::now();
  const Layer* l = layout.findLayer(det.params.layer);
  if (l == nullptr || l->empty()) return {};
  // Phase-boundary check: index construction is serial and can dominate a
  // short deadline; fail fast before paying for it.
  ctx.throwIfCancelled();
  if (p.tiling.enabled()) {
    const TiledLayout tiled = prepareTiledLayout(layout, det.params.layer, p);
    ctx.log(obs::LogLevel::kInfo, "core", "tiled eval start",
            {"tiles", tiled.work.size()}, {"anchors", tiled.anchorCount});
    engine::RunContext* const contexts[] = {&ctx};
    EvalResult res = finishTiledEval(
        tiled, evaluateTiles(det, tiled, p, contexts), p, ctx, t0);
    ctx.log(obs::LogLevel::kInfo, "core", "tiled eval done",
            {"reports", res.reported.size()},
            {"candidates", res.candidateClips});
    return res;
  }
  const GridIndex index(l->rects(), p.extract.clip.clipSide);
  ctx.log(obs::LogLevel::kInfo, "core", "eval start",
          {"rects", index.rects().size()});

  EvalResult res;
  std::vector<ClipWindow> hits =
      scanAnchors(det, index, candidateAnchors(index, p.extract.clip.coreSide),
                  p, ctx, engine::kUntiled, res.candidateClips);
  EvalResult out = finishEval(index, std::move(hits), p, ctx, std::move(res), t0);
  ctx.log(obs::LogLevel::kInfo, "core", "eval done",
          {"reports", out.reported.size()}, {"candidates", out.candidateClips});
  return out;
}

std::vector<RankedReport> rankReports(const Detector& det,
                                      const GridIndex& index,
                                      const std::vector<ClipWindow>& reports,
                                      engine::RunContext& ctx) {
  ctx.throwIfCancelled();
  const LayerIndex layers{{det.params.layer, &index}};
  engine::Stage<ClipWindow, RankedReport> rank{
      "eval/rank", [&det, &layers](engine::RunContext& c,
                                   std::vector<ClipWindow>&& in) {
        std::vector<svm::FeatureVector> feats(in.size());
        c.parallelFor(in.size(), [&](std::size_t i) {
          feats[i] = buildFeatureVector(
              CorePattern::fromCore(extractClip(layers, in[i]),
                                    det.params.layer),
              det.params.features);
        });
        std::vector<const svm::FeatureVector*> rows(in.size());
        for (std::size_t i = 0; i < in.size(); ++i) rows[i] = &feats[i];
        const std::vector<KernelScore> scores =
            scoreKernels(c, det.kernels, rows, ScoreMode::kMax);
        std::vector<RankedReport> out(in.size());
        for (std::size_t i = 0; i < in.size(); ++i)
          out[i] = {in[i], det.probabilityOf(scores[i].decision)};
        return out;
      }};
  std::vector<RankedReport> out = engine::runPipeline(ctx, reports, rank);
  // Stable: equal probabilities (common — repeated patterns score the
  // same) keep the report order.
  std::stable_sort(out.begin(), out.end(),
                   [](const RankedReport& a, const RankedReport& b) {
                     return a.probability > b.probability;
                   });
  return out;
}

EvalResult evaluateLayoutWindowScan(const Detector& det, const Layout& layout,
                                    const EvalParams& p,
                                    engine::RunContext& ctx, double overlap) {
  const Layer* l = layout.findLayer(det.params.layer);
  if (l == nullptr || l->empty()) return {};
  ctx.throwIfCancelled();
  const GridIndex index(l->rects(), p.extract.clip.clipSide);
  std::vector<ClipWindow> windows =
      windowScanClips(layout, det.params.layer, p.extract.clip, overlap);
  // Skip geometry-free windows (they can never be flagged) but keep the
  // full-scan structure otherwise.
  std::erase_if(windows, [&index](const ClipWindow& w) {
    return !index.anyOverlap(w.clip);
  });
  return evaluateCandidates(det, index, windows, p, ctx);
}

}  // namespace hsd::core
