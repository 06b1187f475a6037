// Multilayer hotspot detection (Sec. IV-A): topological classification on
// one selected layer; per-clip features are the concatenation of m
// per-layer feature sets plus m-1 sets extracted from the overlapped
// polygons of adjacent layers (only internal and diagonal features for the
// overlaps, per the paper).
#pragma once

#include <vector>

#include "core/classify.hpp"
#include "core/features.hpp"
#include "core/trainer.hpp"
#include "layout/clip.hpp"
#include "svm/scaler.hpp"
#include "svm/svm.hpp"

namespace hsd::core {

struct MultiLayerParams {
  ClipParams clip;
  /// Participating layers, in stack order. classification runs on
  /// layers.front().
  std::vector<LayerId> layers{1, 2};
  ClassifyParams classify;
  FeatureParams features;  ///< per-layer feature layout
  double initC = 1000.0;
  double initGamma = 0.01;
  std::size_t maxSelfIter = 8;
  double targetTrainAcc = 0.98;
  bool balancePopulation = true;
};

/// Overlapped polygons of two rect sets (pairwise positive-area
/// intersections).
std::vector<Rect> overlapGeometry(const std::vector<Rect>& a,
                                  const std::vector<Rect>& b);

/// Multilayer feature vector of a clip: m per-layer sets + (m-1) adjacent-
/// layer overlap sets (internal + diagonal rule rects only).
svm::FeatureVector buildMultiLayerFeatureVector(const Clip& clip,
                                                const MultiLayerParams& p,
                                                bool coreOnly = true);
std::size_t multiLayerFeatureDim(const MultiLayerParams& p);

/// Per-cluster multi-kernel detector over multilayer clips. Training
/// classifies on the first layer's core topology; evaluation ORs the
/// kernels, as in the single-layer flow.
class MultiLayerDetector {
 public:
  /// Per-cluster kernel (scaler, model, hotspotCount; the single-layer
  /// entry type, so both detectors share core/scorer.hpp).
  using Kernel = KernelEntry;

  MultiLayerParams params;
  std::vector<Kernel> kernels;

  bool evaluateClip(const Clip& clip, double bias = 0.0) const;

  static MultiLayerDetector train(const std::vector<Clip>& training,
                                  const MultiLayerParams& params);
};

}  // namespace hsd::core
