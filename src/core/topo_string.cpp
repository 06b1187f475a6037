#include "core/topo_string.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>

#include "engine/arena.hpp"
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

}  // namespace

DirectionalStrings encodeStrings(const CorePattern& p) {
  // One grid of the pattern with the window bounds as cut lines: its
  // in-window columns are the vertical slices, its rows the horizontal
  // ones, and a slice's runs are its maximal runs of equal cells.
  engine::ArenaScope scope(engine::threadScratch());
  engine::ArenaResource mr(scope.arena());
  const CoverGrid g(p.rects, p.window(), &mr);
  const CoverGrid::Span& w = g.windowCells();

  // The code of column (vertical) or row `line`: the boundary bit, then its
  // run labels read upward/rightward, or downward/leftward when reversed.
  const auto code = [&](bool vertical, std::size_t line, bool reversed) {
    const std::size_t lo = vertical ? w.j0 : w.i0;
    const std::size_t n = (vertical ? w.j1 : w.i1) - lo;
    SliceCode c;
    pushBit(c, true);  // boundary marker
    bool prev = false;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t at = lo + (reversed ? n - 1 - k : k);
      const bool on = vertical ? g.covered(line, at) : g.covered(at, line);
      if (k == 0 || on != prev) pushBit(c, on);
      prev = on;
    }
    if (n == 0) pushBit(c, false);  // a window without extent: one space
    return c;
  };

  DirectionalStrings s;
  s.bottom.reserve(w.i1 - w.i0);
  s.top.reserve(w.i1 - w.i0);
  s.right.reserve(w.j1 - w.j0);
  s.left.reserve(w.j1 - w.j0);
  // Vertical slices serve the bottom string (left->right, runs up) and the
  // top string (right->left, runs down).
  for (std::size_t i = w.i0; i < w.i1; ++i)
    s.bottom.push_back(code(true, i, false));
  for (std::size_t i = w.i1; i-- > w.i0;) s.top.push_back(code(true, i, true));
  // Horizontal slices serve the right string (bottom->top, runs leftward)
  // and the left string (top->bottom, runs rightward).
  for (std::size_t j = w.j0; j < w.j1; ++j)
    s.right.push_back(code(false, j, true));
  for (std::size_t j = w.j1; j-- > w.j0;)
    s.left.push_back(code(false, j, false));
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
