#include "core/extract.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_set>

#include "engine/cache.hpp"
#include "engine/pipeline.hpp"
#include "geom/hashing.hpp"
#include "geom/rectset.hpp"

namespace hsd::core {

namespace {

// Cut rects wider/taller than the core side into core-sized pieces
// (Fig. 11a, second step).
std::vector<Rect> cutToCoreSize(const std::vector<Rect>& rects,
                                Coord coreSide) {
  std::vector<Rect> out;
  out.reserve(rects.size());
  for (const Rect& r : rects) {
    for (Coord x = r.lo.x; x < r.hi.x; x += coreSide) {
      const Coord xhi = std::min(x + coreSide, r.hi.x);
      for (Coord y = r.lo.y; y < r.hi.y; y += coreSide) {
        const Coord yhi = std::min(y + coreSide, r.hi.y);
        out.push_back({x, y, xhi, yhi});
      }
    }
  }
  return out;
}

// Rects overlapping win.clip, clipped to it: the geometry both the screen
// predicate and the cache's window-content hash consume. Every id returned
// by the index has positive-area overlap, so no piece comes out empty.
std::vector<Rect> windowPieces(const GridIndex& index, const ClipWindow& win) {
  const std::vector<std::size_t> ids = index.query(win.clip);
  std::vector<Rect> pieces;
  pieces.reserve(ids.size());
  for (const std::size_t i : ids) {
    const Rect c = index.rects()[i].intersect(win.clip);
    if (!c.valid() || c.empty()) continue;
    pieces.push_back(c);
  }
  return pieces;
}

// The screen predicate on pre-clipped window geometry. Translation
// invariant: density is relative to the window area and margins to the
// window edges, so equal window content gives an equal verdict — the
// property the content-addressed screen cache relies on.
bool screenPieces(const ClipWindow& win, const std::vector<Rect>& pieces,
                  const ExtractParams& p) {
  if (pieces.size() < p.minRectCount) return false;
  std::optional<Rect> bbox;
  for (const Rect& c : pieces) bbox = bbox ? bbox->unite(c) : c;
  if (!bbox) return false;
  const Area covered = unionArea(pieces);
  const double density = double(covered) / double(win.clip.area());
  if (density < p.minDensity || density > p.maxDensity) return false;

  // Margins: distance from each clip edge to the polygon bounding box.
  const Coord ml = bbox->lo.x - win.clip.lo.x;
  const Coord mr = win.clip.hi.x - bbox->hi.x;
  const Coord mb = bbox->lo.y - win.clip.lo.y;
  const Coord mt = win.clip.hi.y - bbox->hi.y;
  const Coord worst = std::max({ml, mr, mb, mt});
  return worst <= p.maxMargin;
}

}  // namespace

std::uint64_t ExtractParams::fingerprint() const {
  std::uint64_t h = hashString("ExtractParams/v1");
  h = hashCombine(h, clip.fingerprint());
  h = hashCombine(h, hashCoord(maxMargin));
  h = hashCombine(h, hashDouble(minDensity));
  h = hashCombine(h, hashDouble(maxDensity));
  h = hashCombine(h, hashMix(minRectCount));
  return h;
}

bool passesScreen(const GridIndex& index, const ClipWindow& win,
                  const ExtractParams& p) {
  return screenPieces(win, windowPieces(index, win), p);
}

engine::Stage<Point, ClipWindow> screenStage(const GridIndex& index,
                                             const ExtractParams& p,
                                             std::size_t tile) {
  return {"extract/screen",
          [&index, &p, tile](engine::RunContext& ctx,
                             std::vector<Point>&& in) {
            engine::StageCache* const cache = ctx.cache();
            std::vector<std::optional<ClipWindow>> tmp(in.size());
            if (cache == nullptr) {
              ctx.parallelFor(in.size(), [&](std::size_t i) {
                const ClipWindow win = anchorWindow(in[i], p.clip);
                if (passesScreen(index, win, p)) tmp[i] = win;
              });
            } else {
              // No tile in the key: tiled and monolithic runs share
              // screen cache entries.
              constexpr std::uint64_t kStage = hashString("extract/screen");
              const std::uint64_t cfg = p.fingerprint();
              std::atomic<std::size_t> hits{0};
              std::atomic<std::size_t> misses{0};
              std::atomic<std::size_t> evictions{0};
              ctx.parallelFor(in.size(), [&](std::size_t i) {
                const ClipWindow win = anchorWindow(in[i], p.clip);
                const std::vector<Rect> pieces = windowPieces(index, win);
                const engine::CacheKey key{
                    kStage, cfg, hashWindowContent(win.clip, pieces)};
                if (const std::optional<bool> v = cache->find(key)) {
                  hits.fetch_add(1, std::memory_order_relaxed);
                  if (*v) tmp[i] = win;
                  return;
                }
                misses.fetch_add(1, std::memory_order_relaxed);
                const bool pass = screenPieces(win, pieces, p);
                evictions.fetch_add(cache->insert(key, pass),
                                    std::memory_order_relaxed);
                if (pass) tmp[i] = win;
              });
              ctx.stats().recordCache("extract/screen", hits, misses,
                                      evictions, tile);
            }
            std::vector<ClipWindow> out;
            out.reserve(in.size());
            for (std::optional<ClipWindow>& o : tmp)
              if (o.has_value()) out.push_back(*o);
            return out;
          },
          tile};
}

std::vector<Point> candidateAnchors(const GridIndex& index, Coord coreSide) {
  const std::vector<Rect> pieces = cutToCoreSize(index.rects(), coreSide);

  // One candidate per piece, core anchored at the piece's bottom-left
  // corner (Fig. 11b); dedupe anchors, keeping first-seen order.
  std::vector<Point> anchors;
  std::unordered_set<Point> seen;
  anchors.reserve(pieces.size());
  for (const Rect& r : pieces)
    if (seen.insert(r.lo).second) anchors.push_back(r.lo);
  return anchors;
}

ClipWindow anchorWindow(const Point& a, const ClipParams& clip) {
  // Anchor the core so the piece's corner sits at the core center-ish:
  // the paper anchors the core at the piece's bottom-left corner.
  return ClipWindow::atCore(
      {a.x - clip.coreSide / 2, a.y - clip.coreSide / 2}, clip);
}

std::vector<ClipWindow> extractCandidateClips(const GridIndex& index,
                                              const ExtractParams& p,
                                              engine::RunContext& ctx) {
  engine::Stage<Point, ClipWindow> screen = screenStage(index, p);
  return engine::runPipeline(ctx, candidateAnchors(index, p.clip.coreSide),
                             screen);
}

std::vector<ClipWindow> extractCandidateClips(const Layout& layout,
                                              LayerId layer,
                                              const ExtractParams& p,
                                              engine::RunContext& ctx) {
  const Layer* l = layout.findLayer(layer);
  if (l == nullptr || l->empty()) return {};
  const GridIndex index(l->rects(), p.clip.clipSide);
  return extractCandidateClips(index, p, ctx);
}

std::vector<ClipWindow> windowScanClips(const Layout& layout, LayerId layer,
                                        const ClipParams& clip,
                                        double overlap) {
  (void)layer;
  const std::optional<Rect> bb = layout.bbox();
  if (!bb) return {};
  const Coord step =
      std::max<Coord>(1, Coord(double(clip.coreSide) * (1.0 - overlap)));
  std::vector<ClipWindow> out;
  for (Coord y = bb->lo.y; y < bb->hi.y; y += step)
    for (Coord x = bb->lo.x; x < bb->hi.x; x += step)
      out.push_back(ClipWindow::atCore({x, y}, clip));
  return out;
}

}  // namespace hsd::core
