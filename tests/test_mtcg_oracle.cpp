// Oracles for the grid-derived tilings, MTCGs, slice strings and feature
// vectors: the band-scan tilings (coveredX/coveredY per band, then a sort
// and merge), the all-pairs Ch/Cv adjacency with the all-triples diagonal
// test, and the per-slice band-scan string encoding they replaced. Tiles,
// out/in lists and diagonals must match exactly on random patterns and on
// every benchmark1/benchmark3 training clip, and the feature vectors built
// from the oracles must match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <string>
#include <tuple>

#include "core/features.hpp"
#include "core/mtcg.hpp"
#include "core/topo_string.hpp"
#include "data/generator.hpp"
#include "geom/density_grid.hpp"
#include "geom/interval.hpp"
#include "geom/rectset.hpp"

namespace hsd::core {
namespace {

CorePattern pattern(Coord w, Coord h, std::vector<Rect> rects) {
  CorePattern p;
  p.w = w;
  p.h = h;
  p.rects = std::move(rects);
  return p;
}

// ---- Band-scan tilings ----

// Merge tiles adjacent along y (alongY) or x with identical span and type.
std::vector<Tile> oracleMerge(std::vector<Tile> tiles, bool alongY) {
  const auto key = [alongY](const Tile& t) {
    return alongY ? std::tuple(t.box.lo.x, t.box.hi.x, t.isBlock, t.box.lo.y)
                  : std::tuple(t.box.lo.y, t.box.hi.y, t.isBlock, t.box.lo.x);
  };
  std::sort(tiles.begin(), tiles.end(),
            [&](const Tile& a, const Tile& b) { return key(a) < key(b); });
  std::vector<Tile> out;
  for (const Tile& t : tiles) {
    if (!out.empty()) {
      Tile& p = out.back();
      const bool sameSpan =
          alongY ? p.box.lo.x == t.box.lo.x && p.box.hi.x == t.box.hi.x
                 : p.box.lo.y == t.box.lo.y && p.box.hi.y == t.box.hi.y;
      const bool abut =
          alongY ? p.box.hi.y == t.box.lo.y : p.box.hi.x == t.box.lo.x;
      if (sameSpan && abut && p.isBlock == t.isBlock) {
        (alongY ? p.box.hi.y : p.box.hi.x) = alongY ? t.box.hi.y : t.box.hi.x;
        continue;
      }
    }
    out.push_back(t);
  }
  return out;
}

// Horizontal (bands cut at y) or vertical band-scan tiling of `window`.
std::vector<Tile> oracleTiling(const std::vector<Rect>& blocksIn,
                               const Rect& window, bool horizontal) {
  const std::vector<Rect> blocks = clipRects(blocksIn, window);
  const Coord wlo = horizontal ? window.lo.y : window.lo.x;
  const Coord whi = horizontal ? window.hi.y : window.hi.x;
  const Coord alo = horizontal ? window.lo.x : window.lo.y;
  const Coord ahi = horizontal ? window.hi.x : window.hi.y;
  std::vector<Coord> cs{wlo, whi};
  for (const Rect& r : blocks) {
    cs.push_back(horizontal ? r.lo.y : r.lo.x);
    cs.push_back(horizontal ? r.hi.y : r.hi.x);
  }
  std::sort(cs.begin(), cs.end());
  cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
  std::vector<Tile> tiles;
  const auto emit = [&](Coord c1, Coord c2, Coord lo, Coord hi, bool block) {
    tiles.push_back({horizontal ? Rect{lo, c1, hi, c2} : Rect{c1, lo, c2, hi},
                     block});
  };
  for (std::size_t i = 0; i + 1 < cs.size(); ++i) {
    const Coord c1 = cs[i], c2 = cs[i + 1];
    if (c1 < wlo || c2 > whi || c1 >= c2) continue;
    const std::vector<Interval> cov =
        horizontal ? coveredX(blocks, c1, c2) : coveredY(blocks, c1, c2);
    for (const Interval& iv : cov) {
      const Coord lo = std::max(iv.lo, alo), hi = std::min(iv.hi, ahi);
      if (lo < hi) emit(c1, c2, lo, hi, true);
    }
    for (const Interval& iv : complementIntervals(cov, {alo, ahi}))
      emit(c1, c2, iv.lo, iv.hi, false);
  }
  return oracleMerge(std::move(tiles), horizontal);
}

std::vector<Tile> canonicalOrder(std::vector<Tile> tiles) {
  std::sort(tiles.begin(), tiles.end(), [](const Tile& a, const Tile& b) {
    return std::pair(a.box.lo.y, a.box.lo.x) <
           std::pair(b.box.lo.y, b.box.lo.x);
  });
  return tiles;
}

// ---- All-pairs MTCGs ----

struct OracleGraph {
  std::vector<Tile> tiles;
  std::vector<std::vector<std::size_t>> out, in;
  std::vector<std::pair<std::size_t, std::size_t>> diagonals;
};

// Same-type tiles in NE or SE relation whose corner region overlaps no
// other same-type tile (Rect::overlaps, tested against every tile).
void oracleDiagonals(OracleGraph& g) {
  const std::size_t n = g.tiles.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const Tile& a = g.tiles[i];
      const Tile& b = g.tiles[j];
      if (a.isBlock != b.isBlock) continue;
      if (a.box.hi.x > b.box.lo.x) continue;
      Rect corner;
      if (a.box.hi.y <= b.box.lo.y)
        corner = {a.box.hi.x, a.box.hi.y, b.box.lo.x, b.box.lo.y};
      else if (b.box.hi.y <= a.box.lo.y)
        corner = {a.box.hi.x, b.box.hi.y, b.box.lo.x, a.box.lo.y};
      else
        continue;
      bool blocked = false;
      for (std::size_t k = 0; k < n && !blocked; ++k)
        blocked = k != i && k != j && g.tiles[k].isBlock == a.isBlock &&
                  g.tiles[k].box.overlaps(corner);
      const auto e = std::make_pair(std::min(i, j), std::max(i, j));
      if (!blocked && std::find(g.diagonals.begin(), g.diagonals.end(), e) ==
                          g.diagonals.end())
        g.diagonals.push_back(e);
    }
  }
  std::sort(g.diagonals.begin(), g.diagonals.end());
}

OracleGraph oracleGraph(const CorePattern& p, bool horizontal) {
  OracleGraph g;
  g.tiles = canonicalOrder(oracleTiling(p.rects, p.window(), horizontal));
  const std::size_t n = g.tiles.size();
  g.out.assign(n, {});
  g.in.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const Rect& a = g.tiles[i].box;
      const Rect& b = g.tiles[j].box;
      const bool edge =
          horizontal
              ? a.hi.x == b.lo.x && a.lo.y < b.hi.y && b.lo.y < a.hi.y
              : a.hi.y == b.lo.y && a.lo.x < b.hi.x && b.lo.x < a.hi.x;
      if (i != j && edge) {
        g.out[i].push_back(j);
        g.in[j].push_back(i);
      }
    }
  }
  if (horizontal) oracleDiagonals(g);
  return g;
}

// The oracle graph as an Mtcg, for the rule extraction.
Mtcg toMtcg(const OracleGraph& o, const Rect& window) {
  Mtcg g;
  g.window = window;
  g.tiles = o.tiles;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < o.out.size(); ++i)
    for (const std::size_t j : o.out[i]) edges.emplace_back(i, j);
  g.setEdges(edges);
  g.diagonals = o.diagonals;
  return g;
}

void expectSameGraph(const Mtcg& got, const OracleGraph& want,
                     const std::string& what) {
  ASSERT_EQ(got.tiles, want.tiles) << what;
  for (std::size_t i = 0; i < want.tiles.size(); ++i) {
    const auto out = got.out(i);
    const auto in = got.in(i);
    ASSERT_EQ(std::vector<std::size_t>(out.begin(), out.end()), want.out[i])
        << what << " tile " << i;
    ASSERT_EQ(std::vector<std::size_t>(in.begin(), in.end()), want.in[i])
        << what << " tile " << i;
  }
  ASSERT_EQ(got.diagonals, want.diagonals) << what;
}

// ---- Band-scan slice strings ----

std::vector<bool> oracleRuns(const std::vector<Interval>& covered,
                             Coord extent) {
  std::vector<bool> runs;
  Coord cursor = 0;
  for (const Interval& iv : covered) {
    const Coord lo = std::max<Coord>(iv.lo, 0);
    const Coord hi = std::min(iv.hi, extent);
    if (hi <= lo) continue;
    if (lo > cursor) runs.push_back(false);
    runs.push_back(true);
    cursor = hi;
  }
  if (cursor < extent || runs.empty()) runs.push_back(false);
  return runs;
}

SliceCode oracleCode(const std::vector<bool>& runs, bool reversed) {
  SliceCode c;
  const auto push = [&c](bool one) {
    if (c.len >= 64) return;
    if (one) c.bits |= std::uint64_t{1} << c.len;
    ++c.len;
  };
  push(true);
  if (reversed)
    for (auto it = runs.rbegin(); it != runs.rend(); ++it) push(*it);
  else
    for (const bool b : runs) push(b);
  return c;
}

DirectionalStrings oracleStrings(const CorePattern& p) {
  const auto slices = [&p](bool vertical) {
    std::vector<Coord> cs{0, vertical ? p.w : p.h};
    for (const Rect& r : p.rects) {
      cs.push_back(vertical ? r.lo.x : r.lo.y);
      cs.push_back(vertical ? r.hi.x : r.hi.y);
    }
    std::sort(cs.begin(), cs.end());
    cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
    std::vector<std::vector<bool>> runs;
    for (std::size_t i = 0; i + 1 < cs.size(); ++i) {
      if (cs[i] < 0 || cs[i + 1] > (vertical ? p.w : p.h) || cs[i] >= cs[i + 1])
        continue;
      runs.push_back(
          vertical ? oracleRuns(coveredY(p.rects, cs[i], cs[i + 1]), p.h)
                   : oracleRuns(coveredX(p.rects, cs[i], cs[i + 1]), p.w));
    }
    return runs;
  };
  DirectionalStrings s;
  const auto v = slices(true);
  for (const auto& r : v) s.bottom.push_back(oracleCode(r, false));
  for (auto it = v.rbegin(); it != v.rend(); ++it)
    s.top.push_back(oracleCode(*it, true));
  const auto h = slices(false);
  for (const auto& r : h) s.right.push_back(oracleCode(r, true));
  for (auto it = h.rbegin(); it != h.rend(); ++it)
    s.left.push_back(oracleCode(*it, false));
  return s;
}

// ---- Feature vectors from the oracles ----

// The orientation with the smallest band-scan key; ties go to the smallest
// transformed rects, then to kAllOrients order.
Orient oracleOrient(const CorePattern& p) {
  Orient best = Orient::R0;
  std::string bestKey;
  std::vector<Rect> bestRects;
  bool first = true;
  for (const Orient o : kAllOrients) {
    CorePattern t = p.transformed(o);
    std::string k = serializeStrings(oracleStrings(t));
    if (first || k < bestKey || (k == bestKey && t.rects < bestRects)) {
      best = o;
      bestKey = std::move(k);
      bestRects = std::move(t.rects);
      first = false;
    }
  }
  return best;
}

svm::FeatureVector oracleFeatureVector(const CorePattern& pat,
                                       const FeatureParams& fp) {
  const CorePattern p =
      fp.canonicalize ? pat.transformed(oracleOrient(pat)) : pat;
  const std::vector<RuleRect> rules =
      extractRuleRects(toMtcg(oracleGraph(p, true), p.window()),
                       toMtcg(oracleGraph(p, false), p.window()));
  svm::FeatureVector v;
  const auto emitKind = [&](FeatKind kind, std::size_t cap) {
    std::size_t n = 0;
    for (const RuleRect& r : rules) {
      if (r.kind != kind || n >= cap) continue;
      v.insert(v.end(), {double(r.w), double(r.h), double(r.dx),
                         double(r.dy), double(r.boundaryMark)});
      ++n;
    }
    for (; n < cap; ++n) v.insert(v.end(), {-1.0, -1.0, -1.0, -1.0, -1.0});
  };
  emitKind(FeatKind::kInternal, fp.maxInternal);
  emitKind(FeatKind::kExternal, fp.maxExternal);
  emitKind(FeatKind::kDiagonal, fp.maxDiagonal);
  emitKind(FeatKind::kSegment, fp.maxSegment);
  // Non-topological features from a grid of the rects alone (no window
  // cut lines), as before the shared grid.
  const CoverGrid grid(p.rects);
  const BoundaryStats st = grid.boundaryStats();
  v.push_back(double(st.convexCorners + st.concaveCorners));
  v.push_back(double(st.touchPoints));
  v.push_back(double(std::max<Coord>(0, grid.minInternalWidth())));
  v.push_back(double(std::max<Coord>(0, grid.minExternalSpacing(p.window()))));
  const Area wa = p.window().area();
  v.push_back(wa > 0 ? double(grid.area()) / double(wa) : 0.0);
  if (fp.densityGridN > 0) {
    std::vector<double> d(fp.densityGridN * fp.densityGridN);
    rasterizeDensity(p.rects, p.window(), fp.densityGridN, fp.densityGridN,
                     d.data());
    v.insert(v.end(), d.begin(), d.end());
  }
  return v;
}

// Bitwise equality: NaN-free, but -0.0 vs 0.0 would still count as a change.
void expectSameBits(const svm::FeatureVector& got,
                    const svm::FeatureVector& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " component " << i;
}

void expectMatchesOracles(const CorePattern& p, const std::string& what) {
  ASSERT_EQ(canonicalOrder(horizontalTiling(p.rects, p.window())),
            canonicalOrder(oracleTiling(p.rects, p.window(), true)))
      << what;
  ASSERT_EQ(canonicalOrder(verticalTiling(p.rects, p.window())),
            canonicalOrder(oracleTiling(p.rects, p.window(), false)))
      << what;
  expectSameGraph(buildCh(p), oracleGraph(p, true), what + " Ch");
  expectSameGraph(buildCv(p), oracleGraph(p, false), what + " Cv");
  ASSERT_EQ(encodeStrings(p), oracleStrings(p)) << what;
}

// Random pattern in a w x h window: up to `maxRects` rects on a coarse
// lattice (so edges align, abut and overlap often), about one in six
// zero-width or zero-height, some reaching past the window edge.
CorePattern randomPattern(std::mt19937& rng, Coord w, Coord h, int maxRects,
                          Coord step) {
  std::uniform_int_distribution<Coord> cx(-1, w / step + 1);
  std::uniform_int_distribution<Coord> cy(-1, h / step + 1);
  std::uniform_int_distribution<int> n(0, maxRects);
  std::uniform_int_distribution<int> six(0, 5);
  std::vector<Rect> rects;
  for (int i = n(rng); i > 0; --i) {
    const Coord x1 = cx(rng) * step, y1 = cy(rng) * step;
    Coord x2 = cx(rng) * step, y2 = cy(rng) * step;
    if (six(rng) == 0) x2 = x1;
    if (six(rng) == 0) y2 = y1;
    rects.push_back({x1, y1, x2, y2});
  }
  return pattern(w, h, std::move(rects));
}

TEST(TilingOracle, RandomPatternsMatchBandScan) {
  std::mt19937 rng(1913);
  for (int trial = 0; trial < 6000; ++trial) {
    const bool full = trial % 2 == 1;
    const Coord w = full ? 4800 : 1200;
    const Coord h = trial % 5 == 0 ? w / 2 : w;
    const CorePattern p =
        randomPattern(rng, w, h, full ? 14 : 6, trial % 3 == 0 ? 1 : w / 12);
    const std::string what = "trial " + std::to_string(trial);
    ASSERT_EQ(canonicalOrder(horizontalTiling(p.rects, p.window())),
              canonicalOrder(oracleTiling(p.rects, p.window(), true)))
        << what;
    ASSERT_EQ(canonicalOrder(verticalTiling(p.rects, p.window())),
              canonicalOrder(oracleTiling(p.rects, p.window(), false)))
        << what;
  }
}

TEST(TilingOracle, HorizontalTilesComeInCanonicalOrder) {
  std::mt19937 rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    const CorePattern p = randomPattern(rng, 1200, 1200, 8, 100);
    const std::vector<Tile> h = horizontalTiling(p.rects, p.window());
    const std::vector<Tile> v = verticalTiling(p.rects, p.window());
    ASSERT_EQ(h, canonicalOrder(h)) << trial;
    ASSERT_EQ(v, canonicalOrder(v)) << trial;
  }
}

TEST(TilingOracle, WindowNotAtOrigin) {
  const Rect win{-300, 200, 900, 1000};
  const std::vector<Rect> blocks{
      {-500, 100, -100, 600}, {0, 400, 900, 500}, {100, 900, 300, 1200}};
  ASSERT_EQ(canonicalOrder(horizontalTiling(blocks, win)),
            canonicalOrder(oracleTiling(blocks, win, true)));
  ASSERT_EQ(canonicalOrder(verticalTiling(blocks, win)),
            canonicalOrder(oracleTiling(blocks, win, false)));
}

TEST(MtcgOracle, RandomPatternsMatchAllPairs) {
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 4000; ++trial) {
    const bool full = trial % 2 == 1;
    const Coord w = full ? 4800 : 1200;
    const Coord h = trial % 7 == 0 ? w / 3 : w;
    expectMatchesOracles(
        randomPattern(rng, w, h, full ? 14 : 6, trial % 3 == 0 ? 1 : w / 12),
        "trial " + std::to_string(trial));
  }
}

TEST(MtcgOracle, EdgeCases) {
  const std::vector<std::pair<const char*, CorePattern>> cases = {
      {"empty", pattern(100, 100, {})},
      {"full", pattern(100, 100, {{0, 0, 100, 100}})},
      {"beyond the window", pattern(100, 100, {{-50, -50, 150, 150}})},
      {"zero-size window", pattern(0, 0, {{0, 0, 10, 10}})},
      {"zero-width window", pattern(0, 100, {{0, 10, 10, 20}})},
      {"zero-height window", pattern(100, 0, {{10, 0, 20, 10}})},
      {"line", pattern(100, 100, {{30, 0, 30, 100}})},
      {"point", pattern(100, 100, {{30, 30, 30, 30}})},
      {"abutting", pattern(100, 100, {{0, 0, 50, 40}, {50, 0, 100, 60}})},
      {"overlapping", pattern(100, 100, {{0, 0, 60, 60}, {40, 40, 100, 100}})},
      {"corner touch", pattern(100, 100, {{0, 0, 50, 50}, {50, 50, 100, 100}})},
      {"on every edge",
       pattern(100, 100,
               {{0, 40, 10, 60}, {90, 40, 100, 60}, {40, 0, 60, 10},
                {40, 90, 60, 100}})},
      {"shared x, far apart",
       pattern(100, 100, {{0, 0, 30, 20}, {30, 70, 60, 100}})},
      {"shared x, straddled",
       pattern(100, 100, {{0, 0, 30, 20}, {10, 40, 50, 50}, {30, 70, 60, 100}})},
      {"shared y, far apart",
       pattern(100, 100, {{0, 0, 20, 30}, {70, 30, 100, 60}})},
      {"shared y, straddled",
       pattern(100, 100, {{0, 0, 20, 30}, {40, 10, 50, 50}, {70, 30, 100, 60}})},
  };
  for (const auto& [name, p] : cases) expectMatchesOracles(p, name);
}

// benchmark1's and benchmark3's training clips, built as generateBenchmark
// builds them: graphs and strings of every core and full clip, and the
// core and feedback feature vectors bit for bit.
void expectTrainingSetMatches(const data::BenchmarkSpec& spec) {
  data::GeneratorParams gp;
  gp.dims = spec.node32 ? data::ProcessDims::node32()
                        : data::ProcessDims::node28();
  gp.seed = spec.seed;
  const gds::ClipSet set = data::generateTrainingSet(gp, spec.targets);
  ASSERT_FALSE(set.clips.empty());
  const FeatureParams core;
  const FeatureParams feedback{.densityGridN = 8};
  for (std::size_t i = 0; i < set.clips.size(); ++i) {
    const Clip& c = set.clips[i];
    const std::string what = spec.name + " clip " + std::to_string(i);
    const CorePattern cp = CorePattern::fromCore(c, gp.layer);
    const CorePattern fp = CorePattern::fromClip(c, gp.layer);
    expectMatchesOracles(cp, what + " core");
    expectMatchesOracles(fp, what + " full");
    expectSameBits(buildFeatureVector(cp, core), oracleFeatureVector(cp, core),
                   what + " core vector");
    expectSameBits(buildFeatureVector(fp, feedback),
                   oracleFeatureVector(fp, feedback), what + " full vector");
  }
}

TEST(MtcgOracle, Benchmark1TrainingClips) {
  expectTrainingSetMatches(data::iccad2012LikeSuite()[0]);
}

TEST(MtcgOracle, Benchmark3TrainingClips) {
  expectTrainingSetMatches(data::iccad2012LikeSuite()[2]);
}

}  // namespace
}  // namespace hsd::core
