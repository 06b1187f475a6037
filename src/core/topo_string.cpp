#include "core/topo_string.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>

#include "geom/interval.hpp"
#include "geom/rectset.hpp"

namespace hsd::core {

namespace {

// Append one run label (1 block / 0 space) to a slice code. A code is one
// 64-bit word, so a slice keeps its boundary bit and first 63 runs and
// drops the rest. Real slices are far shorter: the longest full-clip
// (4.8um) slice of the benchmark1 and benchmark3 training sets has 25 runs
// (len 26).
void pushBit(SliceCode& c, bool one) {
  if (c.len >= 64) return;
  if (one) c.bits |= (std::uint64_t{1} << c.len);
  ++c.len;
}

// Run labels of a slice, reading from coordinate 0 upward: the merged
// covered intervals within [0, extent] alternate with space runs.
// Returns labels in ascending-coordinate order (no boundary bit).
std::vector<bool> runLabels(const std::vector<Interval>& covered,
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

SliceCode makeCode(const std::vector<bool>& runs, bool reversed) {
  SliceCode c;
  pushBit(c, true);  // boundary marker
  if (reversed) {
    for (auto it = runs.rbegin(); it != runs.rend(); ++it) pushBit(c, *it);
  } else {
    for (const bool b : runs) pushBit(c, b);
  }
  return c;
}

// Distinct slice cut coordinates: polygon edges plus the window bounds.
std::vector<Coord> cutsX(const CorePattern& p) {
  std::vector<Coord> xs{0, p.w};
  for (const Rect& r : p.rects) {
    xs.push_back(r.lo.x);
    xs.push_back(r.hi.x);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  return xs;
}

std::vector<Coord> cutsY(const CorePattern& p) {
  std::vector<Coord> ys{0, p.h};
  for (const Rect& r : p.rects) {
    ys.push_back(r.lo.y);
    ys.push_back(r.hi.y);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  return ys;
}

}  // namespace

DirectionalStrings encodeStrings(const CorePattern& p) {
  DirectionalStrings s;
  const std::vector<Coord> xs = cutsX(p);
  const std::vector<Coord> ys = cutsY(p);

  // Vertical slices (cuts at x) serve the bottom and top strings.
  std::vector<std::vector<bool>> vRuns;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    if (xs[i] < 0 || xs[i + 1] > p.w || xs[i] >= xs[i + 1]) continue;
    vRuns.push_back(runLabels(coveredY(p.rects, xs[i], xs[i + 1]), p.h));
  }
  for (const auto& runs : vRuns)  // bottom: slices left->right, runs up
    s.bottom.push_back(makeCode(runs, /*reversed=*/false));
  for (auto it = vRuns.rbegin(); it != vRuns.rend(); ++it)  // top: right->left
    s.top.push_back(makeCode(*it, /*reversed=*/true));

  // Horizontal slices (cuts at y) serve the left and right strings.
  std::vector<std::vector<bool>> hRuns;
  for (std::size_t i = 0; i + 1 < ys.size(); ++i) {
    if (ys[i] < 0 || ys[i + 1] > p.h || ys[i] >= ys[i + 1]) continue;
    hRuns.push_back(runLabels(coveredX(p.rects, ys[i], ys[i + 1]), p.w));
  }
  for (const auto& runs : hRuns)  // right: slices bottom->top, runs leftward
    s.right.push_back(makeCode(runs, /*reversed=*/true));
  for (auto it = hRuns.rbegin(); it != hRuns.rend(); ++it)  // left: top->down
    s.left.push_back(makeCode(*it, /*reversed=*/false));

  return s;
}

namespace {

std::vector<SliceCode> ccwComposite(const DirectionalStrings& s) {
  std::vector<SliceCode> out;
  out.reserve(s.bottom.size() + s.right.size() + s.top.size() +
              s.left.size());
  out.insert(out.end(), s.bottom.begin(), s.bottom.end());
  out.insert(out.end(), s.right.begin(), s.right.end());
  out.insert(out.end(), s.top.begin(), s.top.end());
  out.insert(out.end(), s.left.begin(), s.left.end());
  return out;
}

bool containsCyclic(const std::vector<SliceCode>& hay,
                    const std::vector<SliceCode>& needle) {
  if (needle.empty()) return true;
  if (needle.size() > hay.size()) return false;
  // Doubling the haystack turns cyclic search into linear search.
  std::vector<SliceCode> d = hay;
  d.insert(d.end(), hay.begin(), hay.end());
  return std::search(d.begin(), d.end(), needle.begin(), needle.end()) !=
         d.end();
}

}  // namespace

bool sameTopology(const DirectionalStrings& a, const DirectionalStrings& b) {
  // Two adjacent side strings of `a` in ccw order (left then bottom, as in
  // the paper's example; any adjacent pair works).
  std::vector<SliceCode> needle = a.left;
  needle.insert(needle.end(), a.bottom.begin(), a.bottom.end());

  const std::vector<SliceCode> ccw = ccwComposite(b);
  if (containsCyclic(ccw, needle)) return true;
  std::vector<SliceCode> cw(ccw.rbegin(), ccw.rend());
  return containsCyclic(cw, needle);
}

bool sameTopology(const CorePattern& a, const CorePattern& b) {
  return sameTopology(encodeStrings(a), encodeStrings(b));
}

namespace {

// Append one slice code's key token: hex(bits) ':' dec(len) ','.
void appendCode(std::string& out, const SliceCode& c) {
  char buf[24];  // 16 hex digits + ':' + 3 digits + ','
  char* p = std::to_chars(buf, buf + sizeof buf, c.bits, 16).ptr;
  *p++ = ':';
  p = std::to_chars(p, buf + sizeof buf, unsigned{c.len}).ptr;
  *p++ = ',';
  out.append(buf, p);
}

// Append one side's token: its codes from `first` to `last`, then '|'.
template <class It>
void appendSide(std::string& out, It first, It last) {
  for (; first != last; ++first) appendCode(out, *first);
  out.push_back('|');
}

// Side tokens (0-3: bottom, right, top, left serialized forward; 4-7: the
// same sides reversed) that make up each orientation's (bottom, right, top,
// left) strings, in kAllOrients order. By Theorem 1, rotation r of
// T = (0, 1, 2, 3) or of M = (4, 7, 6, 5) is (t[r], t[r+1], t[r+2],
// t[r+3]); the eight orientations are T's rotations 0, 3, 2, 1, then M's
// rotations 2, 0, 1, 3.
constexpr std::array<std::array<std::uint8_t, 4>, 8> kOrientTokens = {{
    {0, 1, 2, 3},  // R0
    {3, 0, 1, 2},  // R90
    {2, 3, 0, 1},  // R180
    {1, 2, 3, 0},  // R270
    {6, 5, 4, 7},  // MX
    {4, 7, 6, 5},  // MY
    {7, 6, 5, 4},  // MXR90
    {5, 4, 7, 6},  // MYR90
}};

// The eight orientations' keys from one encoding of the pattern. Every
// token ends in its only '|', so no token is a proper prefix of another and
// comparing keys token by token orders them exactly as comparing the
// concatenated strings would.
class OrientKeys {
 public:
  explicit OrientKeys(const CorePattern& p) {
    const DirectionalStrings s = encodeStrings(p);
    const std::array<const std::vector<SliceCode>*, 4> sides = {
        &s.bottom, &s.right, &s.top, &s.left};
    std::size_t t = 0;
    for (const auto* v : sides) {
      appendSide(buf_, v->begin(), v->end());
      end_[t++] = buf_.size();
    }
    for (const auto* v : sides) {
      appendSide(buf_, v->rbegin(), v->rend());
      end_[t++] = buf_.size();
    }
  }

  /// <0, 0 or >0 as orientation a's key sorts before, equal to or after
  /// orientation b's (indices into kAllOrients).
  int compare(std::size_t a, std::size_t b) const {
    for (std::size_t i = 0; i < 4; ++i)
      if (const int c = token(kOrientTokens[a][i])
                            .compare(token(kOrientTokens[b][i])))
        return c;
    return 0;
  }

  /// Index of the first orientation attaining the smallest key.
  std::size_t minimum() const {
    std::size_t best = 0;
    for (std::size_t k = 1; k < kAllOrients.size(); ++k)
      if (compare(k, best) < 0) best = k;
    return best;
  }

  std::string key(std::size_t k) const {
    std::string out;
    for (const std::uint8_t t : kOrientTokens[k]) out += token(t);
    return out;
  }

 private:
  std::string_view token(std::size_t t) const {
    const std::size_t begin = t == 0 ? 0 : end_[t - 1];
    return std::string_view(buf_).substr(begin, end_[t] - begin);
  }

  std::string buf_;
  std::array<std::size_t, 8> end_{};
};

}  // namespace

std::string serializeStrings(const DirectionalStrings& s) {
  std::string out;
  for (const auto* v : {&s.bottom, &s.right, &s.top, &s.left})
    appendSide(out, v->begin(), v->end());
  return out;
}

std::string canonicalTopoKey(const CorePattern& p) {
  const OrientKeys keys(p);
  return keys.key(keys.minimum());
}

Orient canonicalOrient(const CorePattern& p) {
  // Ties on the topology key are broken by the transformed geometry
  // itself: patterns with a topologically symmetric but dimensionally
  // asymmetric shape would otherwise canonicalize inconsistently across
  // orientations (breaking feature alignment within a cluster). The first
  // orientation with the smallest rects wins; only tying orientations are
  // transformed.
  const OrientKeys keys(p);
  std::size_t best = keys.minimum();
  std::vector<Rect> bestRects;
  for (std::size_t k = best + 1; k < kAllOrients.size(); ++k) {
    if (keys.compare(k, best) != 0) continue;
    // Nothing sorts before an empty rect list, so an empty bestRects is
    // either not yet computed or unbeatable.
    if (bestRects.empty()) bestRects = p.transformed(kAllOrients[best]).rects;
    std::vector<Rect> rects = p.transformed(kAllOrients[k]).rects;
    if (rects < bestRects) {
      bestRects = std::move(rects);
      best = k;
    }
  }
  return kAllOrients[best];
}

}  // namespace hsd::core
