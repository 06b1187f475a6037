// Spatial tiling plan for tiled layout evaluation.
//
// A TilePlan partitions a layout bounding box into grid tiles (ids from
// geom's GridTiling — row-major, deterministic) and expands each tile by a
// halo so that every stage run inside the tile (clip extraction, screen,
// feature extraction, fuzzy matching) sees the *full* geometry any owned
// anchor's clip window can reach. The halo must cover the clip's reach
// from an anchor — ambit plus half the core side (minTileHalo) — or the
// plan refuses to build: an undersized halo would silently change
// verdicts at seams, which is the one failure mode this layer exists to
// prevent.
//
// Ownership rule: every candidate anchor belongs to exactly one tile, the
// one owning its canonical corner (GridTiling::ownerOf — half-open seams,
// one owner per point), and only that tile evaluates it. The halo only
// widens the geometry a tile sees, never the anchors it scores, so no hit
// is ever produced twice. Each hit carries the anchor's position in the
// monolithic anchor stream (TileHit::seq); sorting all tiles' hits by it
// reproduces the monolithic stream no matter how many tiles ran, in what
// order, on how many threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/tiling.hpp"
#include "layout/clip.hpp"

namespace hsd::engine {

/// Tiled-evaluation knobs. Tiling is off by default (tileSize == 0): the
/// monolithic path runs unchanged. Deliberately *not* part of any config
/// fingerprint — tiling must never change results, only their schedule.
struct TilingParams {
  /// Grid tile side in dbu; 0 disables tiling.
  Coord tileSize = 0;
  /// Halo width in dbu; 0 means "auto" (minTileHalo of the clip params).
  /// Anything below the minimum is a hard error at plan time.
  Coord halo = 0;
  /// The most tiles in flight at once, across every context evaluating
  /// them (0 = no cap). It only bounds work: the threads that run the
  /// tiles are the contexts' own.
  std::size_t tileThreads = 0;

  bool enabled() const { return tileSize > 0; }
};

/// `v` as an integer when it is a whole number in [0, max]; otherwise
/// throws std::invalid_argument naming `field`. Guards every conversion
/// of an untrusted double (a CLI flag, a query parameter) to a count or a
/// coordinate, where an out-of-range value would be an overflowing
/// conversion and a fraction would be silently truncated.
std::uint64_t wholeNumber(const char* field, double v, double max);

/// 2^53: every whole number up to it is exact in a double, the ceiling
/// wholeNumber() callers use for values with no tighter bound.
inline constexpr double kMaxExactWhole = 9007199254740992.0;

/// TilingParams from untrusted doubles: each must be a whole number in
/// [0, 2^53] (the range a double holds exactly), else
/// std::invalid_argument naming the field ("tile-size", "halo" or
/// "tile-threads").
TilingParams makeTilingParams(double tileSize, double halo,
                              double tileThreads);

/// Smallest halo that keeps tiled evaluation exact: the farthest a clip
/// window reaches from its anchor — the ambit ring plus (rounded-up) half
/// the core. Always larger than the ambit alone.
constexpr Coord minTileHalo(const ClipParams& clip) {
  return clip.ambit() + (clip.coreSide - clip.coreSide / 2);
}

/// One tile of a plan: its id, the owned (un-haloed) region, and the
/// halo-expanded region whose geometry the tile's stages must see.
struct TileSpec {
  std::size_t id = 0;
  Rect owned;
  Rect expanded;
};

/// Deterministic tiling of a layout bounding box. Pure function of
/// (bounds, params, clip): same inputs give the same tile ids, boxes and
/// ownership on every run, thread count and machine.
class TilePlan {
 public:
  /// Build a plan over `bounds`. Throws std::invalid_argument when tiling
  /// is disabled (tileSize <= 0) or the halo is below minTileHalo(clip).
  static TilePlan make(const Rect& bounds, const TilingParams& params,
                       const ClipParams& clip);

  const GridTiling& grid() const { return grid_; }
  Coord halo() const { return halo_; }
  std::size_t tileCount() const { return grid_.tileCount(); }

  TileSpec tile(std::size_t id) const {
    const Rect owned = grid_.tileBox(id);
    return {id, owned, owned.inflated(halo_)};
  }

  /// Id of the tile owning anchor point `p` (total: every point has
  /// exactly one owner — the ownership rule of the deterministic merge).
  std::size_t ownerOf(const Point& p) const { return grid_.ownerOf(p); }

 private:
  GridTiling grid_;
  Coord halo_ = 0;
};

/// TilePlan::make's halo check without a layout: throws its
/// std::invalid_argument when `params` enable tiling with a halo below
/// minTileHalo(clip), else does nothing. Callers run it as soon as the
/// model's clip parameters are known, before reading any layout.
void checkTilePlan(const TilingParams& params, const ClipParams& clip);

/// One per-tile hit: the global anchor sequence number (position in the
/// monolithic candidateAnchors stream) and the flagged window.
struct TileHit {
  std::uint64_t seq = 0;
  ClipWindow win;
};

}  // namespace hsd::engine
