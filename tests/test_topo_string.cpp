// Directional-string encoding and Theorem-1 matching tests, including the
// key property check: the composite-string matcher agrees with brute-force
// D8 comparison, and the canonical key is orientation-invariant. The
// one-encoding canonicalOrient/canonicalTopoKey are checked against an
// eight-encoding oracle on random, symmetric and generated patterns.
#include <gtest/gtest.h>

#include <random>

#include "core/pattern.hpp"
#include "core/topo_string.hpp"
#include "data/generator.hpp"

namespace hsd::core {
namespace {

CorePattern pattern(Coord w, Coord h, std::vector<Rect> rects) {
  CorePattern p;
  p.w = w;
  p.h = h;
  p.rects = std::move(rects);
  return p;
}

TEST(TopoString, EmptyPatternSingleSpaceSlices) {
  const DirectionalStrings s = encodeStrings(pattern(100, 100, {}));
  ASSERT_EQ(s.bottom.size(), 1u);
  // Code "10": boundary bit then one space run -> bits 0b01, len 2.
  EXPECT_EQ(s.bottom[0].len, 2);
  EXPECT_EQ(s.bottom[0].bits & 0x3, 0x1u);
  EXPECT_EQ(s.top, s.bottom);
  EXPECT_EQ(s.left, s.right);
}

TEST(TopoString, FullBlockSlice) {
  const DirectionalStrings s =
      encodeStrings(pattern(100, 100, {{0, 0, 100, 100}}));
  ASSERT_EQ(s.bottom.size(), 1u);
  // Code "11": boundary + one block run.
  EXPECT_EQ(s.bottom[0].len, 2);
  EXPECT_EQ(s.bottom[0].bits & 0x3, 0x3u);
}

TEST(TopoString, Figure5StyleSliceCodes) {
  // A pattern with two distinct vertical slices: left half fully covered,
  // right half with a floating mid block (space-block-space from bottom).
  const CorePattern p =
      pattern(100, 100, {{0, 0, 50, 100}, {50, 40, 100, 60}});
  const DirectionalStrings s = encodeStrings(p);
  ASSERT_EQ(s.bottom.size(), 2u);
  // Slice 1 = <11b> = decimal 3 in the paper's notation.
  EXPECT_EQ(s.bottom[0].len, 2);
  EXPECT_EQ(s.bottom[0].bits, 0x3u);
  // Slice 2 = boundary, space, block, space = <1010b> read from bottom.
  EXPECT_EQ(s.bottom[1].len, 4);
  // bits are packed LSB-first per run: boundary(1),space(0),block(1),space(0)
  EXPECT_EQ(s.bottom[1].bits, 0b0101u);
}

TEST(TopoString, DimensionChangesDontChangeTopology) {
  const CorePattern a = pattern(100, 100, {{10, 10, 40, 90}});
  const CorePattern b = pattern(100, 100, {{20, 5, 45, 80}});
  EXPECT_EQ(canonicalTopoKey(a), canonicalTopoKey(b));
  EXPECT_TRUE(sameTopology(a, b));
}

TEST(TopoString, DifferentTopologyDetected) {
  const CorePattern one = pattern(100, 100, {{10, 10, 40, 90}});
  const CorePattern two =
      pattern(100, 100, {{10, 10, 30, 90}, {60, 10, 80, 90}});
  EXPECT_NE(canonicalTopoKey(one), canonicalTopoKey(two));
  EXPECT_FALSE(sameTopology(one, two));
}

TEST(TopoString, RotatedPatternsMatch) {
  const CorePattern base =
      pattern(120, 120, {{0, 0, 80, 30}, {0, 30, 30, 100}});
  for (const Orient o : kAllOrients) {
    const CorePattern t = base.transformed(o);
    EXPECT_TRUE(sameTopology(base, t)) << toString(o);
    EXPECT_EQ(canonicalTopoKey(base), canonicalTopoKey(t)) << toString(o);
  }
}

// Random rectilinear patterns for property testing.
CorePattern randomPattern(std::mt19937& rng, int maxRects = 4) {
  std::uniform_int_distribution<Coord> c(0, 100);
  std::uniform_int_distribution<int> n(1, maxRects);
  std::vector<Rect> rects;
  const int k = n(rng);
  for (int i = 0; i < k; ++i) {
    const Coord x1 = c(rng), x2 = c(rng), y1 = c(rng), y2 = c(rng);
    if (x1 == x2 || y1 == y2) continue;
    rects.push_back({x1, y1, x2, y2});
  }
  return pattern(100, 100, std::move(rects));
}

// Ground truth: same topology iff the full 4-string tuples are equal under
// some orientation of one pattern.
bool bruteForceSame(const CorePattern& a, const CorePattern& b) {
  const DirectionalStrings sb = encodeStrings(b);
  for (const Orient o : kAllOrients)
    if (encodeStrings(a.transformed(o)) == sb) return true;
  return false;
}

TEST(TopoStringProperty, CompositeMatcherAgreesWithBruteForce) {
  std::mt19937 rng(77);
  int positives = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const CorePattern a = randomPattern(rng);
    // Mix of related (transformed) and unrelated patterns.
    const CorePattern b =
        (trial % 3 == 0)
            ? a.transformed(kAllOrients[std::size_t(trial) % 8])
            : randomPattern(rng);
    const bool brute = bruteForceSame(a, b);
    const bool composite = sameTopology(a, b);
    if (brute) {
      ++positives;
      // Theorem 1 (completeness): equal topology must always be found.
      EXPECT_TRUE(composite);
    }
    // Soundness: the composite matcher and the canonical keys must agree
    // with brute force in both directions.
    EXPECT_EQ(canonicalTopoKey(a) == canonicalTopoKey(b), brute);
  }
  EXPECT_GT(positives, 50);  // the test actually exercised matches
}

TEST(TopoStringProperty, CanonicalKeyInvariantUnderD8) {
  std::mt19937 rng(91);
  for (int trial = 0; trial < 100; ++trial) {
    const CorePattern a = randomPattern(rng);
    const std::string key = canonicalTopoKey(a);
    for (const Orient o : kAllOrients)
      EXPECT_EQ(canonicalTopoKey(a.transformed(o)), key);
  }
}

TEST(TopoStringProperty, CanonicalOrientAttainsKey) {
  std::mt19937 rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const CorePattern a = randomPattern(rng);
    const Orient o = canonicalOrient(a);
    EXPECT_EQ(serializeStrings(encodeStrings(a.transformed(o))),
              canonicalTopoKey(a));
  }
}

TEST(TopoString, SliceCountMatchesCutLines) {
  // Three non-aligned rects: bottom string has one slice per x-interval
  // between distinct edge coordinates (including window margins).
  const CorePattern p = pattern(
      100, 100, {{10, 0, 20, 50}, {30, 20, 60, 80}, {70, 10, 90, 90}});
  const DirectionalStrings s = encodeStrings(p);
  // Cut xs: 0,10,20,30,60,70,90,100 -> 7 slices.
  EXPECT_EQ(s.bottom.size(), 7u);
  EXPECT_EQ(s.top.size(), 7u);
}

TEST(TopoString, SerializeIsInjectiveOnExamples) {
  const CorePattern a = pattern(100, 100, {{0, 0, 50, 100}});
  const CorePattern b = pattern(100, 100, {{50, 0, 100, 100}});
  // Same topology (mirror), different raw serialization.
  EXPECT_NE(serializeStrings(encodeStrings(a)),
            serializeStrings(encodeStrings(b)));
  EXPECT_EQ(canonicalTopoKey(a), canonicalTopoKey(b));
}

TEST(TopoString, ThirtyRunSliceEncodedExactly) {
  // Fifteen full-width bars from y = 0 with gaps between and above them:
  // one vertical slice of 30 runs (block, space, ..., block, space).
  std::vector<Rect> bars;
  for (Coord k = 0; k < 15; ++k) bars.push_back({0, 40 * k, 100, 40 * k + 20});
  const DirectionalStrings s = encodeStrings(pattern(100, 620, bars));
  ASSERT_EQ(s.bottom.size(), 1u);
  // Bit 0 is the boundary marker; read from the bottom the blocks are runs
  // 1, 3, ..., 29, read from the top (space first) runs 2, 4, ..., 30.
  std::uint64_t fromBottom = 1, fromTop = 1;
  for (int k = 0; k < 15; ++k) {
    fromBottom |= std::uint64_t{1} << (1 + 2 * k);
    fromTop |= std::uint64_t{1} << (2 + 2 * k);
  }
  EXPECT_EQ(s.bottom[0].len, 31);
  EXPECT_EQ(s.bottom[0].bits, fromBottom);
  ASSERT_EQ(s.top.size(), 1u);
  EXPECT_EQ(s.top[0].len, 31);
  EXPECT_EQ(s.top[0].bits, fromTop);
  EXPECT_EQ(serializeStrings(s).substr(0, 13), "2aaaaaab:31,|");
}

TEST(TopoString, SerializedTextIsPinned) {
  // hex(bits) ':' dec(len) ',' per code and '|' per side: the text whose
  // order picks the canonical key and orientation.
  const CorePattern p =
      pattern(100, 100, {{0, 0, 50, 100}, {50, 40, 100, 60}});
  EXPECT_EQ(serializeStrings(encodeStrings(p)),
            "3:2,5:4,|5:3,3:2,5:3,|5:4,3:2,|3:3,3:2,3:3,|");
}

// The canonical orientation and key by brute force: transform, encode and
// serialize all eight orientations. Ties on the key go to the smallest
// transformed rects, then to the first orientation in kAllOrients order.
struct OracleResult {
  Orient orient = Orient::R0;
  std::string key;
};

OracleResult canonicalOracle(const CorePattern& p) {
  OracleResult best;
  std::vector<Rect> bestRects;
  bool first = true;
  for (const Orient o : kAllOrients) {
    CorePattern t = p.transformed(o);
    std::string k = serializeStrings(encodeStrings(t));
    if (first || k < best.key || (k == best.key && t.rects < bestRects)) {
      best.key = std::move(k);
      best.orient = o;
      bestRects = std::move(t.rects);
      first = false;
    }
  }
  return best;
}

void expectMatchesOracle(const CorePattern& p, const std::string& what) {
  const OracleResult want = canonicalOracle(p);
  ASSERT_EQ(toString(canonicalOrient(p)), std::string(toString(want.orient)))
      << what;
  ASSERT_EQ(canonicalTopoKey(p), want.key) << what;
}

// Random pattern of up to `maxRects` rects inside a w x h window; with
// `coarse` the coordinates snap to a 12-step grid, so edges align, touch
// and overlap often.
CorePattern randomWindowPattern(std::mt19937& rng, Coord w, Coord h,
                                int maxRects, bool coarse) {
  const Coord step = coarse ? std::max<Coord>(1, w / 12) : 1;
  std::uniform_int_distribution<Coord> cx(0, w / step), cy(0, h / step);
  std::uniform_int_distribution<int> n(0, maxRects);
  std::vector<Rect> rects;
  for (int i = n(rng); i > 0; --i) {
    const Rect r{cx(rng) * step, cy(rng) * step, cx(rng) * step,
                 cy(rng) * step};
    if (!r.empty()) rects.push_back(r);
  }
  return pattern(w, h, std::move(rects));
}

// The union of `p` with its images under `group`: exactly symmetric under
// each, so several orientations tie on key and on rects.
CorePattern symmetrized(const CorePattern& p,
                        const std::vector<Orient>& group) {
  CorePattern out = p;
  for (const Orient o : group) {
    const CorePattern t = p.transformed(o);
    out.rects.insert(out.rects.end(), t.rects.begin(), t.rects.end());
  }
  return out;
}

TEST(CanonicalOracle, RandomCoreAndFullClipPatterns) {
  std::mt19937 rng(2024);
  for (int trial = 0; trial < 12000; ++trial) {
    const bool full = trial % 2 == 1;
    const Coord w = full ? 4800 : 1200;
    expectMatchesOracle(
        randomWindowPattern(rng, w, w, full ? 12 : 6, trial % 4 < 2),
        "trial " + std::to_string(trial));
  }
}

TEST(CanonicalOracle, SymmetricPatternsTie) {
  std::mt19937 rng(4048);
  const std::vector<std::vector<Orient>> groups = {
      {Orient::MX},
      {Orient::MY},
      {Orient::MXR90},
      {Orient::MYR90},
      {Orient::R180},
      {Orient::R90, Orient::R180, Orient::R270},
      {Orient::MX, Orient::MY, Orient::R180},
  };
  for (int trial = 0; trial < 7000; ++trial) {
    const Coord w = trial % 2 == 0 ? 1200 : 4800;
    const CorePattern base =
        randomWindowPattern(rng, w, w, 4, trial % 4 < 2);
    const auto& g = groups[std::size_t(trial) % groups.size()];
    expectMatchesOracle(symmetrized(base, g),
                        "trial " + std::to_string(trial));
  }
}

TEST(CanonicalOracle, NonSquareWindows) {
  std::mt19937 rng(512);
  for (int trial = 0; trial < 2000; ++trial) {
    const Coord w = trial % 2 == 0 ? 1200 : 4800;
    const Coord h = trial % 2 == 0 ? 700 : 3100;
    const bool tall = trial % 4 >= 2;
    expectMatchesOracle(randomWindowPattern(rng, tall ? h : w, tall ? w : h,
                                            8, trial % 3 == 0),
                        "trial " + std::to_string(trial));
  }
}

TEST(CanonicalOracle, EmptyPattern) {
  expectMatchesOracle(pattern(1200, 1200, {}), "square");
  expectMatchesOracle(pattern(1200, 700, {}), "wide");
  EXPECT_EQ(canonicalOrient(pattern(1200, 700, {})), Orient::R0);
}

TEST(CanonicalOracle, GeneratedTrainingClips) {
  // benchmark1's training set, built as generateBenchmark builds it.
  const data::BenchmarkSpec spec = data::iccad2012LikeSuite()[0];
  data::GeneratorParams gp;
  gp.dims = data::ProcessDims::node32();
  gp.seed = spec.seed;
  const gds::ClipSet set = data::generateTrainingSet(gp, spec.targets);
  ASSERT_FALSE(set.clips.empty());
  for (std::size_t i = 0; i < set.clips.size(); ++i) {
    const Clip& c = set.clips[i];
    expectMatchesOracle(CorePattern::fromCore(c, gp.layer),
                        "core " + std::to_string(i));
    expectMatchesOracle(CorePattern::fromClip(c, gp.layer),
                        "clip " + std::to_string(i));
  }
}

}  // namespace
}  // namespace hsd::core
