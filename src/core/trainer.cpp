#include "core/trainer.hpp"

#include <chrono>
#include <iterator>
#include <set>
#include <stdexcept>

#include "core/scorer.hpp"
#include "geom/hashing.hpp"

#include "engine/stats.hpp"

namespace hsd::core {

namespace {

// Shift the clip *window* (geometry stays put), which shifts the pattern
// relative to the window — the paper's data-shifting derivative.
Clip windowShifted(const Clip& clip, const Point& d) {
  Clip out(clip.window().translated(d), clip.label());
  for (const LayerId id : clip.layerIds()) {
    std::vector<Rect> rs = clip.rectsOn(id);
    out.setRects(id, std::move(rs));
  }
  return out;
}

// Row pointers into `vs`: the scorer's input view.
std::vector<const svm::FeatureVector*> rowPointers(
    const std::vector<svm::FeatureVector>& vs) {
  std::vector<const svm::FeatureVector*> rows;
  rows.reserve(vs.size());
  for (const svm::FeatureVector& v : vs) rows.push_back(&v);
  return rows;
}

// Iterative learning (Sec. III-D2): double C and gamma until the training
// accuracy target is met or the bound is hit. Returns the last model.
struct IterativeResult {
  svm::SvmModel model;
  double finalC = 0;
  double finalGamma = 0;
  std::size_t iterations = 0;
};

// Per-class accuracy of `model` on pre-scaled vectors with the given label.
double classAccuracy(const svm::SvmModel& model,
                     const std::vector<svm::FeatureVector>& scaled,
                     int label) {
  if (scaled.empty()) return 1.0;
  std::size_t ok = 0;
  for (const svm::FeatureVector& x : scaled)
    if (model.predict(x) == label) ++ok;
  return double(ok) / double(scaled.size());
}

// Self-training loop of Sec. III-D2: double C and gamma until both class
// accuracies (hotspots of this cluster; the full raw non-hotspot set) meet
// the target, or the iteration bound is hit. Polls the run's cancellation
// flag between iterations so a long kernel fit can be abandoned.
IterativeResult iterativeTrain(const svm::Dataset& scaled,
                               const std::vector<svm::FeatureVector>& valPos,
                               const std::vector<svm::FeatureVector>& valNeg,
                               const TrainParams& tp,
                               engine::RunContext& ctx) {
  IterativeResult res;
  double C = tp.initC;
  double gamma = tp.initGamma;
  for (std::size_t it = 0;; ++it) {
    ctx.throwIfCancelled();
    svm::SvmParams sp;
    sp.C = C;
    sp.gamma = gamma;
    res.model = svm::train(scaled, sp).model;
    res.finalC = C;
    res.finalGamma = gamma;
    res.iterations = it + 1;
    const double posAcc = classAccuracy(res.model, valPos, +1);
    const double negAcc = classAccuracy(res.model, valNeg, -1);
    if ((posAcc >= tp.targetTrainAcc && negAcc >= tp.targetTrainAcc) ||
        it + 1 >= tp.maxSelfIter)
      break;
    C *= 2;
    gamma *= 2;
  }
  return res;
}

}  // namespace

std::vector<Clip> shiftDerivatives(const Clip& clip, Coord shiftNm) {
  std::vector<Clip> out{clip};
  if (shiftNm > 0) {
    out.push_back(windowShifted(clip, {shiftNm, 0}));
    out.push_back(windowShifted(clip, {-shiftNm, 0}));
    out.push_back(windowShifted(clip, {0, shiftNm}));
    out.push_back(windowShifted(clip, {0, -shiftNm}));
  }
  return out;
}

Detector trainDetector(const std::vector<Clip>& training,
                       const TrainParams& tp, engine::RunContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  Detector det;
  det.params = tp;

  std::vector<Clip> hs;
  std::vector<Clip> nhs;
  for (const Clip& c : training) {
    if (c.label() == Label::kHotspot)
      hs.push_back(c);
    else if (c.label() == Label::kNonHotspot)
      nhs.push_back(c);
  }
  if (hs.empty() || nhs.empty())
    throw std::invalid_argument(
        "trainDetector: need both hotspot and non-hotspot clips");
  det.stats.rawHotspots = hs.size();
  det.stats.rawNonHotspots = nhs.size();

  // Data shifting: upsample hotspots with 4-way shifted derivatives
  // (introduces the fuzziness that lets kernels catch near-miss clips).
  if (tp.enableShift) {
    std::vector<Clip> upsampled;
    upsampled.reserve(hs.size() * 5);
    for (const Clip& c : hs) {
      std::vector<Clip> d = shiftDerivatives(c, tp.shiftNm);
      upsampled.insert(upsampled.end(), std::make_move_iterator(d.begin()),
                       std::make_move_iterator(d.end()));
    }
    hs = std::move(upsampled);
  }
  det.stats.upsampledHotspots = hs.size();

  // Core patterns for classification and core-feature extraction.
  std::vector<CorePattern> hsCores;
  hsCores.reserve(hs.size());
  for (const Clip& c : hs) hsCores.push_back(CorePattern::fromCore(c, tp.layer));
  std::vector<CorePattern> nhsCores;
  nhsCores.reserve(nhs.size());
  for (const Clip& c : nhs)
    nhsCores.push_back(CorePattern::fromCore(c, tp.layer));

  engine::StageTimer classifyTimer(ctx.stats(), "train/classify",
                                   hs.size() + nhs.size(), ctx.tracer());
  std::vector<Cluster> hsClusters;
  if (tp.singleKernel) {
    Cluster all;
    all.topoKey = "*";
    all.members.resize(hs.size());
    for (std::size_t i = 0; i < hs.size(); ++i) all.members[i] = i;
    all.representative = 0;
    hsClusters.push_back(std::move(all));
  } else {
    hsClusters = classifyPatterns(hsCores, tp.classify);
  }
  const std::vector<Cluster> nhsClusters =
      classifyPatterns(nhsCores, tp.classify);
  classifyTimer.stop();
  det.stats.hotspotClusters = hsClusters.size();
  det.stats.nonHotspotClusters = nhsClusters.size();

  // Population balancing: the non-hotspot training set is the cluster
  // centroids only (downsampling + noise removal).
  std::vector<std::size_t> nhsSelected;
  if (tp.balancePopulation) {
    nhsSelected.reserve(nhsClusters.size());
    for (const Cluster& c : nhsClusters) nhsSelected.push_back(c.representative);
  } else {
    nhsSelected.resize(nhs.size());
    for (std::size_t i = 0; i < nhs.size(); ++i) nhsSelected[i] = i;
  }
  det.stats.balancedNonHotspots = nhsSelected.size();

  // Core feature vectors (shared across kernels). The full raw non-hotspot
  // feature list doubles as the self-training validation set.
  engine::StageTimer featureTimer(ctx.stats(), "train/features",
                                  hs.size() + nhs.size(), ctx.tracer());
  std::vector<svm::FeatureVector> hsFeat(hs.size());
  ctx.parallelFor(hs.size(), [&](std::size_t i) {
    hsFeat[i] = buildFeatureVector(hsCores[i], tp.features);
  });
  std::vector<svm::FeatureVector> allNhsFeat(nhs.size());
  ctx.parallelFor(nhs.size(), [&](std::size_t i) {
    allNhsFeat[i] = buildFeatureVector(nhsCores[i], tp.features);
  });
  featureTimer.stop();
  std::vector<svm::FeatureVector> nhsFeat(nhsSelected.size());
  for (std::size_t i = 0; i < nhsSelected.size(); ++i)
    nhsFeat[i] = allNhsFeat[nhsSelected[i]];

  // One SVM kernel per hotspot cluster (Fig. 9a), trained in parallel.
  engine::StageTimer kernelTimer(ctx.stats(), "train/kernels",
                                 hsClusters.size(), ctx.tracer());
  det.kernels.resize(hsClusters.size());
  ctx.parallelFor(hsClusters.size(), [&](std::size_t k) {
    const Cluster& cluster = hsClusters[k];
    svm::Dataset data;
    for (const std::size_t m : cluster.members) data.add(hsFeat[m], +1);
    for (const svm::FeatureVector& f : nhsFeat) data.add(f, -1);

    KernelEntry& entry = det.kernels[k];
    entry.topoKey = cluster.topoKey;
    entry.hotspotCount = cluster.members.size();
    entry.scaler.fit(data.x);
    entry.scaler.transformInPlace(data.x);

    std::vector<svm::FeatureVector> valPos;
    valPos.reserve(cluster.members.size());
    for (const std::size_t m : cluster.members)
      valPos.push_back(entry.scaler.transform(hsFeat[m]));
    std::vector<svm::FeatureVector> valNeg;
    valNeg.reserve(allNhsFeat.size());
    for (const svm::FeatureVector& f : allNhsFeat)
      valNeg.push_back(entry.scaler.transform(f));

    IterativeResult res = iterativeTrain(data, valPos, valNeg, tp, ctx);
    entry.model = std::move(res.model);
    entry.finalC = res.finalC;
    entry.finalGamma = res.finalGamma;
    entry.selfIterations = res.iterations;
  });
  kernelTimer.stop();

  // Feedback kernel (Sec. III-D4): self-evaluate the non-hotspot centroids;
  // the ones some kernel still flags as hotspots ("extras") become, with
  // their ambit, the negative side of the feedback training set.
  if (tp.enableFeedback) {
    engine::StageTimer feedbackTimer(ctx.stats(), "train/feedback",
                                     nhs.size(), ctx.tracer());
    std::vector<std::size_t> extraClipIdx;   // indices into nhs
    std::set<std::size_t> implicatedKernels;
    const std::vector<KernelScore> scores = scoreKernels(
        ctx, det.kernels, rowPointers(allNhsFeat), ScoreMode::kFirstFlag);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (!scores[i].flagged) continue;
      extraClipIdx.push_back(i);
      implicatedKernels.insert(scores[i].kernel);
    }
    for (const std::size_t k : implicatedKernels)
      det.kernels[k].feedbackApplies = true;
    det.stats.feedbackExtras = extraClipIdx.size();

    if (!extraClipIdx.empty()) {
      // Sub-cluster the extras *with ambit information* and keep only the
      // sub-cluster centroids (Fig. 9c).
      std::vector<CorePattern> extraClips;
      extraClips.reserve(extraClipIdx.size());
      for (const std::size_t i : extraClipIdx)
        extraClips.push_back(CorePattern::fromClip(nhs[i], tp.layer));
      const std::vector<Cluster> sub =
          classifyPatterns(extraClips, tp.classify);

      svm::Dataset data;
      for (const Cluster& c : sub)
        data.add(buildFeatureVector(extraClips[c.representative],
                                    tp.feedbackFeatures),
                 -1);
      // Hotspot side: every hotspot cluster's members with core+ambit
      // features. (The paper uses the implicated clusters, extending to
      // all kernels when several contribute extras; training on the full
      // hotspot set lets the feedback kernel safely review every flagged
      // clip without reclaiming true hotspots of other clusters.)
      for (const Clip& c : hs)
        data.add(buildFeatureVector(CorePattern::fromClip(c, tp.layer),
                                    tp.feedbackFeatures),
                 +1);

      if (data.countLabel(1) > 0 && data.countLabel(-1) > 0) {
        det.feedbackScaler.fit(data.x);
        det.feedbackScaler.transformInPlace(data.x);
        std::vector<svm::FeatureVector> valPos, valNeg;
        for (std::size_t i = 0; i < data.size(); ++i)
          (data.y[i] > 0 ? valPos : valNeg).push_back(data.x[i]);
        det.feedbackModel = iterativeTrain(data, valPos, valNeg, tp, ctx).model;
        det.hasFeedback = true;
      }
    }
  }

  // Every training core, hotspots first: the Platt and baseline passes
  // score these rows.
  std::vector<const svm::FeatureVector*> trainingRows = rowPointers(hsFeat);
  for (const svm::FeatureVector& f : allNhsFeat) trainingRows.push_back(&f);

  // Platt calibration on the training cores: max-kernel decision value vs
  // label, so reports can be ranked by P(hotspot).
  {
    const engine::StageTimer plattTimer(ctx.stats(), "train/platt",
                                        hs.size() + allNhsFeat.size(),
                                        ctx.tracer());
    const std::vector<KernelScore> scores = scoreKernels(
        ctx, det.kernels, trainingRows, ScoreMode::kMax);
    std::vector<double> f(scores.size());
    std::vector<int> y(f.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
      f[i] = scores[i].decision;
      y[i] = i < hsFeat.size() ? +1 : -1;
    }
    try {
      det.platt = svm::fitPlatt(f, y);
      det.hasPlatt = true;
    } catch (const std::invalid_argument&) {
      det.hasPlatt = false;  // degenerate decision distribution
    }
  }

  // Freeze the drift baseline: every training core scored through the
  // kernels exactly as eval/svm will score live windows (first flagging
  // kernel wins; unflagged cores attribute to the closest kernel), bucketed
  // into the shared MarginSketch layout. Live traffic that looks like the
  // training set then reproduces these proportions and scores PSI ~ 0.
  if (!det.kernels.empty()) {
    const engine::StageTimer baselineTimer(ctx.stats(), "train/baseline",
                                           hsFeat.size() + allNhsFeat.size(),
                                           ctx.tracer());
    const std::vector<KernelScore> scores = scoreKernels(
        ctx, det.kernels, trainingRows, ScoreMode::kFirstFlag);
    det.baseline.clusters.resize(det.kernels.size());
    const std::vector<std::string> names = det.clusterNames();
    for (std::size_t k = 0; k < det.kernels.size(); ++k)
      det.baseline.clusters[k].name = names[k];
    for (const KernelScore& sc : scores) {
      obs::ModelBaseline::Cluster& c = det.baseline.clusters[sc.kernel];
      ++c.buckets[obs::MarginSketch::bucketOf(sc.decision)];
      ++(sc.flagged ? c.hot : c.cold);
    }
    det.hasBaseline = true;
  }

  det.stats.trainSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return det;
}

double Detector::hotspotProbability(const CorePattern& core) const {
  return probabilityOf(decisionValue(core));
}

double Detector::probabilityOf(double f) const {
  return hasPlatt ? platt.probability(f) : (f > 0 ? 1.0 : 0.0);
}

bool Detector::evaluateCore(const CorePattern& core, double bias) const {
  return scoreKernels(kernels, buildFeatureVector(core, params.features),
                      ScoreMode::kFirstFlag, bias)
      .flagged;
}

double Detector::decisionValue(const CorePattern& core) const {
  return scoreKernels(kernels, buildFeatureVector(core, params.features),
                      ScoreMode::kMax)
      .decision;
}

bool Detector::evaluateClip(const Clip& clip, double bias,
                            bool useFeedback) const {
  if (!evaluateCore(CorePattern::fromCore(clip, params.layer), bias))
    return false;
  if (useFeedback && hasFeedback) {
    const svm::FeatureVector fb = buildFeatureVector(
        CorePattern::fromClip(clip, params.layer), params.feedbackFeatures);
    if (feedbackModel.predict(feedbackScaler.transform(fb)) < 0)
      return false;  // reclaimed as non-hotspot by the ambit-aware kernel
  }
  return true;
}

namespace {

void saveScaler(std::ostream& os, const svm::Scaler& s) {
  os << s.dim() << '\n';
  os.precision(17);
  for (const double v : s.mins()) os << v << ' ';
  os << '\n';
  for (const double v : s.maxs()) os << v << ' ';
  os << '\n';
}

svm::Scaler loadScaler(text::TextCursor& in) {
  const std::size_t d = in.count(2);  // d mins, then d maxs
  std::vector<double> lo(d), hi(d);
  in.reals(lo);
  in.reals(hi);
  return svm::Scaler(std::move(lo), std::move(hi));
}

void saveFeatureParams(std::ostream& os, const FeatureParams& f) {
  os << f.maxInternal << ' ' << f.maxExternal << ' ' << f.maxDiagonal << ' '
     << f.maxSegment << ' ' << f.densityGridN << ' ' << int(f.canonicalize)
     << '\n';
}

FeatureParams loadFeatureParams(text::TextCursor& in) {
  FeatureParams f;
  for (std::size_t* v : {&f.maxInternal, &f.maxExternal, &f.maxDiagonal,
                         &f.maxSegment, &f.densityGridN})
    *v = in.integer<std::size_t>();
  f.canonicalize = in.integer<int>() != 0;
  return f;
}

// fingerprint() helpers: each folds one saveCore() section into `h`.
std::uint64_t hashFeatureParams(std::uint64_t h, const FeatureParams& f) {
  for (const std::size_t v : {f.maxInternal, f.maxExternal, f.maxDiagonal,
                              f.maxSegment, f.densityGridN})
    h = hashCombine(h, v);
  return hashCombine(h, f.canonicalize);
}

std::uint64_t hashScaler(std::uint64_t h, const svm::Scaler& s) {
  h = hashCombine(h, hashDoubles(s.mins()));
  return hashCombine(h, hashDoubles(s.maxs()));
}

std::uint64_t hashModel(std::uint64_t h, const svm::SvmModel& m) {
  h = hashCombine(h, hashDouble(m.gamma()));
  h = hashCombine(h, hashDouble(m.rho()));
  h = hashCombine(h, hashDoubles(m.coefficients()));
  for (std::size_t i = 0; i < m.supportVectorCount(); ++i) {
    const svm::ops::PackedVectors::Row sv = m.supportVector(i);
    h = hashCombine(h, hashDoubles(sv.first, sv.size, sv.stride));
  }
  return h;
}

}  // namespace

void Detector::saveCore(std::ostream& os) const {
  // Round-trip precision for every double, the first kernel's
  // finalC/finalGamma included (older files wrote those two at the
  // stream's default 6 digits; they still load).
  os.precision(17);
  os << "hsd_detector 2\n";
  os << params.clip.coreSide << ' ' << params.clip.clipSide << ' '
     << params.layer << '\n';
  saveFeatureParams(os, params.features);
  saveFeatureParams(os, params.feedbackFeatures);
  os << kernels.size() << '\n';
  for (const KernelEntry& k : kernels) {
    os << "kernel " << k.hotspotCount << ' ' << k.finalC << ' '
       << k.finalGamma << ' ' << k.selfIterations << ' '
       << int(k.feedbackApplies) << '\n';
    saveScaler(os, k.scaler);
    k.model.save(os);
  }
  os << int(hasFeedback) << '\n';
  if (hasFeedback) {
    saveScaler(os, feedbackScaler);
    feedbackModel.save(os);
  }
  os << int(hasPlatt) << ' ' << platt.a << ' ' << platt.b << '\n';
}

void Detector::save(std::ostream& os) const {
  saveCore(os);
  // The drift baseline rides after the fingerprinted core as an optional
  // trailing section — files saved before baselines existed load
  // unchanged, and old readers would stop before it anyway.
  if (hasBaseline) baseline.save(os);
}

std::vector<std::string> Detector::clusterNames() const {
  std::vector<std::string> names(kernels.size());
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    if (!kernels[i].topoKey.empty()) {
      names[i] = kernels[i].topoKey;
    } else if (hasBaseline && i < baseline.clusters.size()) {
      // topoKey is not serialized; a loaded detector recovers the names
      // from its baseline section so live slots match baseline clusters.
      names[i] = baseline.clusters[i].name;
    } else {
      names[i] = "k" + std::to_string(i);
    }
  }
  return names;
}

std::uint64_t Detector::fingerprint() const {
  // Exactly the fields saveCore() writes, in the same order, each by its
  // exact bits: any retrain, load of a different model or one-ulp
  // parameter nudge changes it. Keep the two in step.
  std::uint64_t h = hashString("hsd_detector 2");
  h = hashCombine(h, hashCoord(params.clip.coreSide));
  h = hashCombine(h, hashCoord(params.clip.clipSide));
  h = hashCombine(h, params.layer);
  h = hashFeatureParams(h, params.features);
  h = hashFeatureParams(h, params.feedbackFeatures);
  h = hashCombine(h, kernels.size());
  for (const KernelEntry& k : kernels) {
    h = hashCombine(h, k.hotspotCount);
    h = hashCombine(h, hashDouble(k.finalC));
    h = hashCombine(h, hashDouble(k.finalGamma));
    h = hashCombine(h, k.selfIterations);
    h = hashCombine(h, k.feedbackApplies);
    h = hashScaler(h, k.scaler);
    h = hashModel(h, k.model);
  }
  h = hashCombine(h, hasFeedback);
  if (hasFeedback) {
    h = hashScaler(h, feedbackScaler);
    h = hashModel(h, feedbackModel);
  }
  h = hashCombine(h, hasPlatt);
  h = hashCombine(h, hashDouble(platt.a));
  return hashCombine(h, hashDouble(platt.b));
}

Detector Detector::load(std::istream& is) {
  text::TextCursor in(is, "Detector::load");
  in.expect("hsd_detector");
  if (in.integer<int>() != 2) in.fail("unsupported detector version");
  Detector det;
  det.params.clip.coreSide = in.integer<Coord>();
  det.params.clip.clipSide = in.integer<Coord>();
  det.params.layer = in.integer<LayerId>();
  det.params.features = loadFeatureParams(in);
  det.params.feedbackFeatures = loadFeatureParams(in);
  // Each kernel is at least 17 tokens: its "kernel" line (6), the
  // scaler's dimension (1) and the SVM model's header (10).
  det.kernels.resize(in.count(17));
  for (KernelEntry& k : det.kernels) {
    in.expect("kernel");
    k.hotspotCount = in.integer<std::size_t>();
    k.finalC = in.real();
    k.finalGamma = in.real();
    k.selfIterations = in.integer<std::size_t>();
    k.feedbackApplies = in.integer<int>() != 0;
    k.scaler = loadScaler(in);
    k.model = svm::SvmModel::load(in);
  }
  det.hasFeedback = in.integer<int>() != 0;
  if (det.hasFeedback) {
    det.feedbackScaler = loadScaler(in);
    det.feedbackModel = svm::SvmModel::load(in);
  }
  det.hasPlatt = in.integer<int>() != 0;
  det.platt.a = in.real();
  det.platt.b = in.real();
  if (in.atEnd()) return det;
  const std::string_view kw = in.word();
  if (kw != "baseline")
    in.fail("unexpected trailer '" + std::string(kw) + "'");
  det.baseline = obs::ModelBaseline::load(in);
  det.hasBaseline = true;
  if (!in.atEnd()) in.fail("unexpected text after the baseline");
  return det;
}

}  // namespace hsd::core
