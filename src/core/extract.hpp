// Layout clip extraction (Sec. III-E): instead of scanning the full layout
// with sliding windows, dissect every polygon into rectangles, cut pieces
// larger than the core side, anchor one candidate clip per piece, and keep
// only clips whose polygon distribution passes the user screen (density,
// polygon count, boundary margins). A window-based extractor (50 % overlap)
// is provided as the Table V baseline.
//
// Extraction runs as a streaming stage on engine::RunContext: anchors are
// enumerated once, then screened in batches ("extract/screen"), so the
// evaluator can chain extraction straight into scoring without
// materializing the full candidate list.
#pragma once

#include <cstddef>
#include <vector>

#include "engine/pipeline.hpp"
#include "engine/run_context.hpp"
#include "layout/clip.hpp"
#include "layout/layout.hpp"
#include "layout/spatial_index.hpp"

namespace hsd::core {

struct ExtractParams {
  ClipParams clip;
  /// Maximum allowed distance between the clip boundary and the bounding
  /// box of the clip's polygons. The paper uses 1440 nm on the contest
  /// layouts (no fully isolated features there); the default here is half
  /// the clip side so isolated-feature hotspots keep a covering candidate
  /// — accuracy is the primary objective.
  Coord maxMargin = 2400;
  /// Polygon-distribution screen within the clip window.
  double minDensity = 0.005;
  double maxDensity = 0.90;
  std::size_t minRectCount = 1;

  /// Stable config fingerprint for stage-cache keys: covers every field
  /// that changes a screen verdict.
  std::uint64_t fingerprint() const;
};

/// Deduplicated candidate core anchors (bottom-left corners of the
/// core-sized polygon pieces, Fig. 11b) in deterministic first-seen order
/// — the source of the streaming extraction stage.
std::vector<Point> candidateAnchors(const GridIndex& index, Coord coreSide);

/// The candidate window whose core is centered on anchor `a`.
ClipWindow anchorWindow(const Point& a, const ClipParams& clip);

/// Polygon-distribution screen of Sec. III-E: density, rect count, and the
/// four margins between the clip boundary and the polygon bounding box.
bool passesScreen(const GridIndex& index, const ClipWindow& win,
                  const ExtractParams& p);

/// The streaming "extract/screen" stage: anchors in, surviving windows
/// out. Cache-aware — when the running context has a StageCache attached,
/// screen verdicts are keyed on (stage, p.fingerprint(), window content)
/// and hit/miss/evict counts land under "extract/screen" in EngineStats.
/// `tile` only says which tile the stats are recorded under; the cache
/// key has no tile, so tiled and monolithic runs share screen verdict
/// entries. `index` and `p` are captured by reference and must outlive
/// the stage.
engine::Stage<Point, ClipWindow> screenStage(
    const GridIndex& index, const ExtractParams& p,
    std::size_t tile = engine::kUntiled);

/// Candidate clip windows of `layout` on `layer` (deduplicated by core
/// anchor). The returned windows are screened but not yet classified.
std::vector<ClipWindow> extractCandidateClips(const Layout& layout,
                                              LayerId layer,
                                              const ExtractParams& p,
                                              engine::RunContext& ctx);

/// Same, but against a prebuilt rect index (reused across calls).
std::vector<ClipWindow> extractCandidateClips(const GridIndex& index,
                                              const ExtractParams& p,
                                              engine::RunContext& ctx);

/// Table V baseline: full sliding-window grid at `overlap` (0.5 = 50 %)
/// between adjacent windows of core size. Returns every grid window over
/// the layout bounding box (the contest baseline counts all of them).
std::vector<ClipWindow> windowScanClips(const Layout& layout, LayerId layer,
                                        const ClipParams& clip,
                                        double overlap = 0.5);

}  // namespace hsd::core
