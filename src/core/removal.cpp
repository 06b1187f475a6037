#include "core/removal.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "geom/hashing.hpp"
#include "geom/rectset.hpp"

namespace hsd::core {

std::uint64_t RemovalParams::fingerprint() const {
  std::uint64_t h = hashString("RemovalParams/v1");
  h = hashCombine(h, clip.fingerprint());
  h = hashCombine(h, hashDouble(minCoreOverlapFrac));
  h = hashCombine(h, hashCoord(reframeSeparation));
  h = hashCombine(h, hashMix(reframeThreshold));
  h = hashCombine(h, hashCoord(maxMargin));
  return h;
}

namespace {

struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

struct Region {
  std::vector<std::size_t> members;
  Rect bbox;
};

// Clip merging (Fig. 12b): regions of transitively core-overlapping
// reports (overlap at least `frac` of the core area).
std::vector<Region> mergeRegions(const std::vector<ClipWindow>& wins,
                                 double frac) {
  std::vector<Rect> cores;
  cores.reserve(wins.size());
  for (const ClipWindow& w : wins) cores.push_back(w.core);
  const GridIndex idx(cores, cores.empty() ? 1 : cores.front().width() * 4);

  UnionFind uf(wins.size());
  for (std::size_t i = 0; i < wins.size(); ++i) {
    const double minOv = frac * double(wins[i].core.area());
    for (const std::size_t j : idx.query(wins[i].core)) {
      if (j == i) continue;
      if (double(wins[i].core.overlapArea(wins[j].core)) >= minOv)
        uf.unite(i, j);
    }
  }

  std::vector<Region> regions;
  std::vector<std::int64_t> rootToRegion(wins.size(), -1);
  for (std::size_t i = 0; i < wins.size(); ++i) {
    const std::size_t r = uf.find(i);
    if (rootToRegion[r] < 0) {
      rootToRegion[r] = std::int64_t(regions.size());
      regions.push_back({{}, wins[i].core});
    }
    Region& reg = regions[std::size_t(rootToRegion[r])];
    reg.members.push_back(i);
    reg.bbox = reg.bbox.unite(wins[i].core);
  }
  return regions;
}

// Clip reframing (Fig. 12c): cover the region bbox with cores at pitch
// l_s < l_c so any core-sized square inside the region overlaps one.
std::vector<ClipWindow> reframeRegion(const Region& reg,
                                      const RemovalParams& p) {
  const Coord lc = p.clip.coreSide;
  const Coord ls = std::min(p.reframeSeparation, lc - 1);
  std::vector<Coord> xs, ys;
  for (Coord x = reg.bbox.lo.x;; x += ls) {
    if (x + lc >= reg.bbox.hi.x) {
      xs.push_back(std::max(reg.bbox.lo.x, reg.bbox.hi.x - lc));
      break;
    }
    xs.push_back(x);
  }
  for (Coord y = reg.bbox.lo.y;; y += ls) {
    if (y + lc >= reg.bbox.hi.y) {
      ys.push_back(std::max(reg.bbox.lo.y, reg.bbox.hi.y - lc));
      break;
    }
    ys.push_back(y);
  }
  std::vector<ClipWindow> out;
  out.reserve(xs.size() * ys.size());
  for (const Coord y : ys)
    for (const Coord x : xs) out.push_back(ClipWindow::atCore({x, y}, p.clip));
  return out;
}

std::vector<ClipWindow> mergeAndReframe(const std::vector<ClipWindow>& wins,
                                        const RemovalParams& p) {
  std::vector<ClipWindow> out;
  for (const Region& reg : mergeRegions(wins, p.minCoreOverlapFrac)) {
    if (reg.members.size() > p.reframeThreshold) {
      std::vector<ClipWindow> rf = reframeRegion(reg, p);
      out.insert(out.end(), rf.begin(), rf.end());
    } else {
      for (const std::size_t i : reg.members) out.push_back(wins[i]);
    }
  }
  return out;
}

// Covered-core pruning (Fig. 12d): a core is dropped when every polygon
// piece inside it is covered by other surviving cores and each of its four
// corners lies inside some other surviving core.
std::vector<ClipWindow> pruneCovered(const std::vector<ClipWindow>& wins,
                                     const GridIndex& layoutIndex,
                                     const RemovalParams& p) {
  (void)p;
  std::vector<Rect> cores;
  cores.reserve(wins.size());
  for (const ClipWindow& w : wins) cores.push_back(w.core);
  const GridIndex coreIdx(cores, cores.empty() ? 1 : cores.front().width() * 4);

  std::vector<char> alive(wins.size(), 1);
  for (std::size_t i = 0; i < wins.size(); ++i) {
    const Rect& core = wins[i].core;
    std::vector<Rect> others;
    for (const std::size_t j : coreIdx.query(core))
      if (j != i && alive[j]) others.push_back(cores[j]);
    if (others.empty()) continue;

    // Condition 2: all four corners inside some other core.
    const Point corners[4] = {core.lo,
                              {core.hi.x, core.lo.y},
                              {core.lo.x, core.hi.y},
                              core.hi};
    bool cornersCovered = true;
    for (const Point& c : corners) {
      bool found = false;
      for (const Rect& o : others)
        if (o.contains(c)) {
          found = true;
          break;
        }
      if (!found) {
        cornersCovered = false;
        break;
      }
    }
    if (!cornersCovered) continue;

    // Condition 1: every polygon piece inside this core is fully covered
    // by the union of the other cores. A core with no geometry at all is
    // kept (vacuous coverage must not discard it: an actual hotspot core
    // could still sit in the empty span it covers).
    bool geomCovered = true;
    std::size_t pieceCount = 0;
    for (const std::size_t gi : layoutIndex.query(core)) {
      const Rect piece = layoutIndex.rects()[gi].intersect(core);
      if (!piece.valid() || piece.empty()) continue;
      ++pieceCount;
      std::vector<Rect> coverage;
      for (const Rect& o : others) {
        const Rect ov = o.intersect(piece);
        if (ov.valid() && !ov.empty()) coverage.push_back(ov);
      }
      if (unionArea(coverage) != piece.area()) {
        geomCovered = false;
        break;
      }
    }
    if (geomCovered && pieceCount > 0) alive[i] = 0;
  }

  std::vector<ClipWindow> out;
  for (std::size_t i = 0; i < wins.size(); ++i)
    if (alive[i]) out.push_back(wins[i]);
  return out;
}

// Clip shifting (Fig. 12e): when the clip's polygons hug one side, recenter
// the clip on the polygons' center of gravity along the violating axis.
ClipWindow shiftToGravity(const ClipWindow& win, const GridIndex& layoutIndex,
                          const RemovalParams& p) {
  std::vector<Rect> pieces;
  for (const std::size_t gi : layoutIndex.query(win.clip)) {
    const Rect piece = layoutIndex.rects()[gi].intersect(win.clip);
    if (piece.valid() && !piece.empty()) pieces.push_back(piece);
  }
  if (pieces.empty()) return win;
  Rect bbox = pieces.front();
  double cx = 0, cy = 0, totalA = 0;
  for (const Rect& r : pieces) {
    bbox = bbox.unite(r);
    const double a = double(r.area());
    cx += a * 0.5 * double(r.lo.x + r.hi.x);
    cy += a * 0.5 * double(r.lo.y + r.hi.y);
    totalA += a;
  }
  if (totalA <= 0) return win;
  cx /= totalA;
  cy /= totalA;

  const Coord ml = bbox.lo.x - win.clip.lo.x;
  const Coord mr = win.clip.hi.x - bbox.hi.x;
  const Coord mb = bbox.lo.y - win.clip.lo.y;
  const Coord mt = win.clip.hi.y - bbox.hi.y;

  Point center = win.core.center();
  if (std::max(ml, mr) > p.maxMargin) center.x = Coord(std::llround(cx));
  if (std::max(mb, mt) > p.maxMargin) center.y = Coord(std::llround(cy));
  if (center == win.core.center()) return win;
  return ClipWindow::centeredOn(center, p.clip);
}

}  // namespace

std::vector<ClipWindow> removeRedundantClips(
    const std::vector<ClipWindow>& reported, const GridIndex& layoutIndex,
    const RemovalParams& p, engine::RunContext& ctx) {
  if (reported.empty()) return {};
  const engine::StageTimer timer(ctx.stats(), "eval/removal",
                                 reported.size(), ctx.tracer());
  // Pass 1: merge + reframe.
  std::vector<ClipWindow> wins = mergeAndReframe(reported, p);
  // Pass 2: drop cores fully covered by their neighbors (inherently
  // sequential: each verdict depends on which earlier cores survived).
  wins = pruneCovered(wins, layoutIndex, p);
  // Pass 3: recenter clips hugging one side (independent per window).
  ctx.parallelFor(wins.size(), [&](std::size_t i) {
    wins[i] = shiftToGravity(wins[i], layoutIndex, p);
  });
  // Pass 4: merge + reframe again.
  return mergeAndReframe(wins, p);
}

}  // namespace hsd::core
