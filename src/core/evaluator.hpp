// End-to-end evaluation pipeline (Fig. 3, right half): clip extraction ->
// multiple-kernel + feedback evaluation -> redundant clip removal ->
// reported hotspot windows.
//
// The flow runs as a staged streaming pipeline on engine::RunContext:
//
//   anchors -> [extract/screen] -> [extract/candidates] -> [eval/clip]
//           -> [eval/features] -> [eval/svm] -> [eval/feedback]
//           -> hits -> [eval/removal] -> reported
//
// Candidate windows stream through the stages in bounded batches instead
// of materializing full vectors between phases; every stage's calls /
// items / wall seconds land in the context's EngineStats. All stages use
// index-stable parallelism, so reports are byte-identical across thread
// counts.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/extract.hpp"
#include "core/removal.hpp"
#include "core/trainer.hpp"
#include "engine/run_context.hpp"
#include "engine/tiler.hpp"

namespace hsd::core {

struct EvalParams {
  ExtractParams extract;
  RemovalParams removal;
  /// Decision-threshold shift applied to every kernel; positive values
  /// trade accuracy for fewer extras (the ours_med / ours_low operating
  /// points and the Fig. 15 sweep).
  double decisionBias = 0.0;
  bool useFeedback = true;
  bool useRemoval = true;
  /// Spatial tiling (engine/tiler.hpp): when enabled, evaluateLayout
  /// partitions the layout into halo-expanded grid tiles, runs the stage
  /// pipeline per tile, and deterministically merges — reports are
  /// byte-identical to the monolithic path, so tiling is deliberately
  /// excluded from fingerprint().
  engine::TilingParams tiling;

  /// Stable config fingerprint over every field that changes evaluation
  /// results (extract + removal + bias + toggles).
  std::uint64_t fingerprint() const;
};

struct EvalResult {
  std::vector<ClipWindow> reported;   ///< final hotspot reports
  std::size_t candidateClips = 0;     ///< clips surviving extraction
  std::size_t flaggedBeforeRemoval = 0;
  double evalSeconds = 0.0;
};

/// Run the full evaluation phase of `det` on `layout`, streaming candidate
/// clips from extraction through scoring without materializing the
/// candidate list. With p.tiling enabled the run is tiled (see below) but
/// the reports stay byte-identical.
EvalResult evaluateLayout(const Detector& det, const Layout& layout,
                          const EvalParams& p, engine::RunContext& ctx);

// --- Tiled evaluation -----------------------------------------------
// evaluateLayout dispatches through these when p.tiling.enabled(). They
// are public so the serving layer can fan one request's tiles across
// several pooled contexts: prepare once, evaluateTiles over the request's
// context plus whatever helpers it borrowed, finish once. Determinism
// contract: the merge output never depends on which context ran which
// tile, in what order, or with how many threads.

/// The per-request tiling plan: the global geometry index, the tile grid,
/// and the monolithic anchor stream partitioned to tiles by the ownership
/// rule (anchor's canonical corner, engine::TilePlan::ownerOf).
struct TiledLayout {
  GridIndex index;        ///< global geometry index (also used by removal)
  engine::TilePlan plan;
  /// One entry per *non-empty* tile, in tile-id order: the tile and its
  /// owned anchors as (global sequence number, anchor), sequence-sorted.
  struct Work {
    std::size_t tileId = 0;
    std::vector<std::pair<std::uint64_t, Point>> anchors;
  };
  std::vector<Work> work;
  std::size_t anchorCount = 0;
};

/// Enumerate the monolithic candidate-anchor stream once and partition it
/// to tiles. Throws std::invalid_argument when p.tiling is disabled. A
/// missing/empty layer yields an empty plan (no work).
TiledLayout prepareTiledLayout(const Layout& layout, LayerId layer,
                               const EvalParams& p);

/// Hits and counters of one evaluated tile.
struct TileEvalResult {
  std::vector<engine::TileHit> hits;
  std::size_t candidateClips = 0;
};

/// Evaluate one work item (tiled.work[workIndex]) on `ctx`: builds a
/// local index over the tile's halo-expanded geometry and streams the
/// tile's anchors through the full stage pipeline, its stats recorded
/// under the tile's id.
/// Safe to call concurrently for different work items; evaluateTiles is
/// the scheduler that does.
TileEvalResult evaluateTile(const Detector& det, const TiledLayout& tiled,
                            std::size_t workIndex, const EvalParams& p,
                            engine::RunContext& ctx);

/// Evaluate every work item of `tiled`, one result slot per item (in work
/// order). contexts[0] is the caller's context; any further entries are
/// borrowed helpers, each driven from a std::thread of its own. All
/// contexts claim tiles from one shared index: a context with T threads
/// runs up to T claim loops through its own parallelFor (the stages of
/// each tile then run inline), a one-thread context claims on the thread
/// driving it; no more loops start than there are tiles. The first error
/// stops all claiming, cancels every helper (never contexts[0], which the
/// caller may reuse) and is rethrown once every context is idle. Helper
/// stats are folded into contexts[0] before returning or throwing.
std::vector<TileEvalResult> evaluateTiles(
    const Detector& det, const TiledLayout& tiled, const EvalParams& p,
    std::span<engine::RunContext* const> contexts);

/// Merge of every tile's hits in global anchor-sequence order followed by
/// the *global* redundant-clip removal pass — removal is order-dependent,
/// so it runs once over the merged monolithic-order hit stream, never per
/// tile.
/// `t0` is the evaluation start, so evalSeconds covers prepare + tiles +
/// merge.
EvalResult finishTiledEval(const TiledLayout& tiled,
                           std::vector<TileEvalResult>&& tiles,
                           const EvalParams& p, engine::RunContext& ctx,
                           std::chrono::steady_clock::time_point t0);

/// Evaluate a pre-extracted candidate list against a prebuilt geometry
/// index (used by benches that reuse extraction across operating points).
EvalResult evaluateCandidates(const Detector& det, const GridIndex& index,
                              const std::vector<ClipWindow>& candidates,
                              const EvalParams& p, engine::RunContext& ctx);

/// A reported hotspot with its Platt-calibrated confidence.
struct RankedReport {
  ClipWindow window;
  double probability = 0.0;

  friend constexpr auto operator<=>(const RankedReport&,
                                    const RankedReport&) = default;
};

/// Rank reported windows by the detector's calibrated hotspot probability
/// (descending), so downstream correction can triage the worst first.
/// Equal probabilities keep the order of `reports`.
std::vector<RankedReport> rankReports(const Detector& det,
                                      const GridIndex& index,
                                      const std::vector<ClipWindow>& reports,
                                      engine::RunContext& ctx);

/// Full-layout scanning comparator (what Sec. III-E avoids): evaluate
/// every sliding window at the given overlap instead of the extracted
/// candidates. Same detector, same scoring — used to measure the
/// evaluation-time saving of clip extraction (Table V).
EvalResult evaluateLayoutWindowScan(const Detector& det, const Layout& layout,
                                    const EvalParams& p,
                                    engine::RunContext& ctx,
                                    double overlap = 0.5);

}  // namespace hsd::core
