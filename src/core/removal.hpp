// Redundant clip removal (Sec. III-F, Fig. 12): reported hotspot cores
// that pile up over the same pattern are merged into regions, reframed at
// a sub-core pitch, pruned when fully covered by other cores, recentered
// onto the polygon center of gravity, and merged/reframed once more. This
// cuts the extra count without losing any actual hotspot whose core is
// overlapped by at least one surviving core.
#pragma once

#include <cstddef>
#include <vector>

#include "engine/run_context.hpp"
#include "layout/clip.hpp"
#include "layout/spatial_index.hpp"

namespace hsd::core {

struct RemovalParams {
  ClipParams clip;
  /// Minimum core-overlap (fraction of core area) for two reports to merge
  /// into one region (paper: 20 %).
  double minCoreOverlapFrac = 0.2;
  /// Separating distance l_s of core reframing; must be < core side
  /// (paper: 1150 nm for l_c = 1200 nm).
  Coord reframeSeparation = 1150;
  /// Regions with more than this many cores get reframed (paper: 4).
  std::size_t reframeThreshold = 4;
  /// Max allowed clip-boundary-to-polygon-bbox margin before the clip is
  /// recentered on the polygon center of gravity (paper: 1440 nm).
  Coord maxMargin = 1440;

  /// Stable config fingerprint for stage-cache keys.
  std::uint64_t fingerprint() const;
};

/// Filter `reported` hotspot windows against the layout geometry index.
/// Recorded as the "eval/removal" stage; the clip-shifting pass runs on
/// the context's pool (index-stable, thread-count independent).
std::vector<ClipWindow> removeRedundantClips(
    const std::vector<ClipWindow>& reported, const GridIndex& layoutIndex,
    const RemovalParams& p, engine::RunContext& ctx);

}  // namespace hsd::core
