// Spatial tiling plan for tiled layout evaluation.
//
// A TilePlan partitions a layout bounding box into grid tiles (ids from
// geom's GridTiling — row-major, deterministic) and expands each tile by a
// halo so that every stage run inside the tile (clip extraction, screen,
// feature extraction, fuzzy matching) sees the *full* geometry any owned
// anchor's clip window can reach. The halo is the clip's reach from an
// anchor — ambit plus half the core side (minTileHalo) — a function of
// the model's clip geometry, never a choice: a smaller one would
// silently change verdicts at seams, a larger one only costs work.
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

/// Tiled evaluation's one setting. Tiling is off by default (tileSize ==
/// 0): the monolithic path runs unchanged. Deliberately *not* part of any
/// config fingerprint — tiling must never change results, only their
/// schedule. The halo follows from the clip (minTileHalo), and the tiles
/// in flight from the threads of the contexts that run them.
struct TilingParams {
  /// Grid tile side in dbu; 0 disables tiling.
  Coord tileSize = 0;

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

/// The tile halo: the farthest a clip window reaches from its anchor —
/// the ambit ring plus (rounded-up) half the core, the least that keeps
/// tiled evaluation exact. Always larger than the ambit alone.
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
  /// Build a plan over `bounds` with halo minTileHalo(clip). Throws
  /// std::invalid_argument when tiling is disabled (tileSize <= 0).
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

/// One per-tile hit: the global anchor sequence number (position in the
/// monolithic candidateAnchors stream) and the flagged window.
struct TileHit {
  std::uint64_t seq = 0;
  ClipWindow win;
};

}  // namespace hsd::engine
