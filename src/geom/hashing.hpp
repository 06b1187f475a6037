// Stable 64-bit geometry hashing for content-addressed caching. The stage
// cache (engine/cache.hpp) keys results on (stage, config fingerprint,
// window-content hash); this header supplies the geometry half: a strong
// mixer, an order-independent rect-set hash (so query/decomposition order
// never changes the key), and grid snapping to canonicalize window
// placement. All hashes are pure functions of the coordinate values —
// stable across runs, platforms and thread counts, never pointer- or
// iteration-order-dependent.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "geom/rect.hpp"

namespace hsd {

/// splitmix64 finalizer: a full-avalanche 64-bit mix. Zero maps away from
/// zero, so absent/empty inputs still produce distinctive hashes.
constexpr std::uint64_t hashMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-*dependent* combine (for sequences whose order is meaningful).
constexpr std::uint64_t hashCombine(std::uint64_t seed, std::uint64_t v) {
  return hashMix(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                         (seed >> 2)));
}

/// FNV-1a over a byte string (stage names, config text).
constexpr std::uint64_t hashString(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= std::uint64_t(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t hashCoord(Coord c) {
  return hashMix(static_cast<std::uint64_t>(c));
}

/// Exact-bit hash of a double (no rounding: 1e-12 parameter nudges
/// produce distinct fingerprints, which is what cache invalidation wants).
constexpr std::uint64_t hashDouble(double d) {
  return hashMix(std::bit_cast<std::uint64_t>(d));
}

/// Exact-bit, order-dependent hash of a double array. Each element is
/// mixed with its index and the mixes are summed, so there is no serial
/// chain through the loop (it runs at multiply throughput) yet moving a
/// value to another index still changes the hash. The length is folded
/// in, so a trailing zero is not absorbed.
std::uint64_t hashDoubles(std::span<const double> xs);
/// hashDoubles() of the `n` doubles first[0], first[stride], ... — the
/// same bits as over those values gathered into one array (a row of a
/// blocked-transposed matrix hashes in place).
std::uint64_t hashDoubles(const double* first, std::size_t n,
                          std::size_t stride);

constexpr std::uint64_t hashPoint(const Point& p) {
  return hashCombine(hashCoord(p.x), hashCoord(p.y));
}

constexpr std::uint64_t hashRect(const Rect& r) {
  return hashCombine(hashPoint(r.lo), hashPoint(r.hi));
}

/// Order-independent hash of a rect set: commutative accumulation (sum and
/// xor of per-rect mixes, plus the count), so the same set of rects hashes
/// identically no matter how a spatial query or band decomposition ordered
/// them. Duplicated rects *do* change the hash (multiset semantics).
std::uint64_t hashRectsUnordered(const std::vector<Rect>& rects);

/// Largest multiple of `grid` that is <= c (floor snapping; grid <= 0 is
/// identity).
constexpr Coord snapDown(Coord c, Coord grid) {
  if (grid <= 0) return c;
  const Coord q = c / grid;
  return (c % grid != 0 && c < 0) ? (q - 1) * grid : q * grid;
}

/// Smallest multiple of `grid` that is >= c.
constexpr Coord snapUp(Coord c, Coord grid) {
  if (grid <= 0) return c;
  const Coord q = c / grid;
  return (c % grid != 0 && c > 0) ? (q + 1) * grid : q * grid;
}

/// Canonical grid-aligned cover of `r`: lo floored, hi ceiled to `grid`.
/// Snapping windows before hashing makes near-identical anchor placements
/// share one canonical key (and one cache entry).
constexpr Rect snappedToGrid(const Rect& r, Coord grid) {
  return {Point{snapDown(r.lo.x, grid), snapDown(r.lo.y, grid)},
          Point{snapUp(r.hi.x, grid), snapUp(r.hi.y, grid)}};
}

/// Content hash of `rects` viewed from window `window`: every rect is
/// translated so the window's lower-left corner becomes the origin, then
/// hashed order-independently together with the window's dimensions. Two
/// windows at different absolute positions with identical local geometry
/// (the repeated-pattern case) produce the same hash — the property that
/// makes the stage cache content-addressed rather than position-addressed.
std::uint64_t hashWindowContent(const Rect& window,
                                const std::vector<Rect>& rects);

}  // namespace hsd
