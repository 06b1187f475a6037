// Critical feature extraction (Sec. III-C): topological rule rectangles
// (internal / external / diagonal / segment) extracted from the MTCGs,
// plus the five non-topological features, assembled into fixed-length
// SVM feature vectors.
//
// Fixed-length note: within one topology cluster every pattern yields the
// same feature count (Theorem 1), but one SVM kernel trains on a hotspot
// cluster *plus all non-hotspot centroids*, whose topologies differ. We
// therefore lay features out in a fixed per-kind capped layout (position
// ordered, padded with a sentinel); inside a cluster the layout aligns
// features one-to-one, across clusters it stays comparable.
#pragma once

#include <cstddef>
#include <vector>

#include "core/mtcg.hpp"
#include "core/pattern.hpp"
#include "svm/dataset.hpp"

namespace hsd::core {

enum class FeatKind : std::uint8_t {
  kInternal = 0,  ///< width/height of an isolated block tile
  kExternal,      ///< space tile between exactly two block tiles
  kDiagonal,      ///< corner gap between diagonally adjacent tiles
  kSegment,       ///< space tile touching 2-3 window boundaries
};

/// One extracted feature as a rule rectangle: dimensions plus the offset of
/// its lower-left corner from the window's reference (lower-left) corner,
/// and the number of window boundaries it touches (the "special mark").
struct RuleRect {
  FeatKind kind = FeatKind::kInternal;
  Coord w = 0;
  Coord h = 0;
  Coord dx = 0;
  Coord dy = 0;
  int boundaryMark = 0;

  friend constexpr auto operator<=>(const RuleRect&, const RuleRect&) = default;
};

/// Extract all rule rectangles of `p` from its Ch and Cv MTCGs, in a
/// deterministic order (kind, then position).
std::vector<RuleRect> extractRuleRects(const CorePattern& p);
/// The same from p's two graphs, ch = buildCh(p) and cv = buildCv(p).
std::vector<RuleRect> extractRuleRects(const Mtcg& ch, const Mtcg& cv);

/// The five non-topological features of Fig. 7(e).
struct NonTopoFeatures {
  int corners = 0;          ///< convex + concave corner count
  int touchPoints = 0;      ///< corner-touch points
  Coord minInternal = 0;    ///< min internally-facing edge distance (width)
  Coord minExternal = 0;    ///< min externally-facing edge distance (space)
  double density = 0.0;     ///< polygon density of the window
};

NonTopoFeatures extractNonTopo(const CorePattern& p);
/// The same from a grid of p's rects (with or without p's window).
NonTopoFeatures extractNonTopo(const CorePattern& p, const CoverGrid& grid);

/// Feature-vector layout configuration.
struct FeatureParams {
  std::size_t maxInternal = 8;
  std::size_t maxExternal = 8;
  std::size_t maxDiagonal = 4;
  std::size_t maxSegment = 4;
  /// Optional appended density grid (N x N pixels over the window); used by
  /// the Basic baseline and by the feedback kernel's ambit features. 0 = off.
  std::size_t densityGridN = 0;
  /// Rotate the pattern to its canonical orientation before extraction so
  /// all cluster members align.
  bool canonicalize = true;

  std::size_t dim() const {
    return (maxInternal + maxExternal + maxDiagonal + maxSegment) * 5 + 5 +
           densityGridN * densityGridN;
  }
};

/// Build the fixed-length feature vector of `p` under `fp`.
svm::FeatureVector buildFeatureVector(const CorePattern& p,
                                      const FeatureParams& fp);

}  // namespace hsd::core
