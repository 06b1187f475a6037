#include "core/multilayer.hpp"

#include <stdexcept>

#include "core/scorer.hpp"

namespace hsd::core {

std::vector<Rect> overlapGeometry(const std::vector<Rect>& a,
                                  const std::vector<Rect>& b) {
  std::vector<Rect> out;
  for (const Rect& ra : a) {
    for (const Rect& rb : b) {
      const Rect ov = ra.intersect(rb);
      if (ov.valid() && !ov.empty()) out.push_back(ov);
    }
  }
  return out;
}

namespace {

// Overlap sets use internal + diagonal features only (Sec. IV-A).
FeatureParams overlapParams(const FeatureParams& base) {
  FeatureParams p = base;
  p.maxExternal = 0;
  p.maxSegment = 0;
  p.densityGridN = 0;
  return p;
}

CorePattern patternOf(const Clip& clip, LayerId layer, bool coreOnly) {
  return coreOnly ? CorePattern::fromCore(clip, layer)
                  : CorePattern::fromClip(clip, layer);
}

CorePattern overlapPattern(const Clip& clip, LayerId a, LayerId b,
                           bool coreOnly) {
  const CorePattern pa = patternOf(clip, a, coreOnly);
  const CorePattern pb = patternOf(clip, b, coreOnly);
  CorePattern out;
  out.w = pa.w;
  out.h = pa.h;
  out.rects = overlapGeometry(pa.rects, pb.rects);
  return out;
}

}  // namespace

std::size_t multiLayerFeatureDim(const MultiLayerParams& p) {
  const std::size_t m = p.layers.size();
  return m * p.features.dim() + (m - 1) * overlapParams(p.features).dim();
}

svm::FeatureVector buildMultiLayerFeatureVector(const Clip& clip,
                                                const MultiLayerParams& p,
                                                bool coreOnly) {
  svm::FeatureVector v;
  v.reserve(multiLayerFeatureDim(p));
  for (const LayerId layer : p.layers) {
    const svm::FeatureVector lv =
        buildFeatureVector(patternOf(clip, layer, coreOnly), p.features);
    v.insert(v.end(), lv.begin(), lv.end());
  }
  const FeatureParams op = overlapParams(p.features);
  for (std::size_t i = 0; i + 1 < p.layers.size(); ++i) {
    const svm::FeatureVector ov = buildFeatureVector(
        overlapPattern(clip, p.layers[i], p.layers[i + 1], coreOnly), op);
    v.insert(v.end(), ov.begin(), ov.end());
  }
  return v;
}

MultiLayerDetector MultiLayerDetector::train(const std::vector<Clip>& training,
                                             const MultiLayerParams& mp) {
  if (mp.layers.empty())
    throw std::invalid_argument("MultiLayerDetector: no layers configured");
  MultiLayerDetector det;
  det.params = mp;

  std::vector<const Clip*> hs, nhs;
  for (const Clip& c : training) {
    if (c.label() == Label::kHotspot) hs.push_back(&c);
    if (c.label() == Label::kNonHotspot) nhs.push_back(&c);
  }
  if (hs.empty() || nhs.empty())
    throw std::invalid_argument(
        "MultiLayerDetector: need both classes present");

  // Classification on the first layer's core topology (Sec. IV-A).
  std::vector<CorePattern> hsPats;
  hsPats.reserve(hs.size());
  for (const Clip* c : hs)
    hsPats.push_back(CorePattern::fromCore(*c, mp.layers.front()));
  const std::vector<Cluster> hsClusters = classifyPatterns(hsPats, mp.classify);

  // Non-hotspot side: optional centroid downsampling.
  std::vector<const Clip*> nhsSel;
  if (mp.balancePopulation) {
    std::vector<CorePattern> nhsPats;
    nhsPats.reserve(nhs.size());
    for (const Clip* c : nhs)
      nhsPats.push_back(CorePattern::fromCore(*c, mp.layers.front()));
    for (const Cluster& cl : classifyPatterns(nhsPats, mp.classify))
      nhsSel.push_back(nhs[cl.representative]);
  } else {
    nhsSel = nhs;
  }

  std::vector<svm::FeatureVector> hsFeat;
  hsFeat.reserve(hs.size());
  for (const Clip* c : hs)
    hsFeat.push_back(buildMultiLayerFeatureVector(*c, mp));
  std::vector<svm::FeatureVector> nhsFeat;
  nhsFeat.reserve(nhsSel.size());
  for (const Clip* c : nhsSel)
    nhsFeat.push_back(buildMultiLayerFeatureVector(*c, mp));

  for (const Cluster& cluster : hsClusters) {
    svm::Dataset data;
    for (const std::size_t m : cluster.members) data.add(hsFeat[m], +1);
    for (const svm::FeatureVector& f : nhsFeat) data.add(f, -1);

    Kernel k;
    k.hotspotCount = cluster.members.size();
    k.scaler.fit(data.x);
    k.scaler.transformInPlace(data.x);

    double C = mp.initC;
    double gamma = mp.initGamma;
    for (std::size_t it = 0;; ++it) {
      svm::SvmParams sp;
      sp.C = C;
      sp.gamma = gamma;
      k.model = svm::train(data, sp).model;
      if (svm::trainingAccuracy(k.model, data) >= mp.targetTrainAcc ||
          it + 1 >= mp.maxSelfIter)
        break;
      C *= 2;
      gamma *= 2;
    }
    det.kernels.push_back(std::move(k));
  }
  return det;
}

bool MultiLayerDetector::evaluateClip(const Clip& clip, double bias) const {
  return scoreKernels(kernels, buildMultiLayerFeatureVector(clip, params),
                      ScoreMode::kFirstFlag, bias)
      .flagged;
}

}  // namespace hsd::core
