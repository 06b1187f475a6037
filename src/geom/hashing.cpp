#include "geom/hashing.hpp"

namespace hsd {

std::uint64_t hashRectsUnordered(const std::vector<Rect>& rects) {
  // Commutative accumulators: per-rect mixes combined by + and ^ are
  // independent of iteration order; folding both (plus the count) keeps
  // collision resistance close to an ordered combine.
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  for (const Rect& r : rects) {
    const std::uint64_t h = hashRect(r);
    sum += h;
    xr ^= hashMix(h);
  }
  std::uint64_t out = hashMix(rects.size());
  out = hashCombine(out, sum);
  out = hashCombine(out, xr);
  return out;
}

std::uint64_t hashDoubles(std::span<const double> xs) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    sum += hashMix(std::bit_cast<std::uint64_t>(xs[i]) ^ hashMix(i));
  return hashCombine(hashMix(xs.size()), sum);
}

std::uint64_t hashWindowContent(const Rect& window,
                                const std::vector<Rect>& rects) {
  const Point origin = window.lo;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  for (const Rect& r : rects) {
    const std::uint64_t h = hashRect(r.translated({-origin.x, -origin.y}));
    sum += h;
    xr ^= hashMix(h);
  }
  std::uint64_t out =
      hashCombine(hashCoord(window.width()), hashCoord(window.height()));
  out = hashCombine(out, hashMix(rects.size()));
  out = hashCombine(out, sum);
  out = hashCombine(out, xr);
  return out;
}

}  // namespace hsd
