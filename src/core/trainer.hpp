// Training phase (Sec. III-D, Fig. 9): data shifting, two-level
// topological classification, population balancing, iterative multiple
// SVM-kernel learning and feedback-kernel learning. The trained Detector
// is the deployable artifact used by the evaluation phase.
#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "core/classify.hpp"
#include "core/features.hpp"
#include "core/pattern.hpp"
#include "engine/run_context.hpp"
#include "layout/clip.hpp"
#include "obs/drift.hpp"
#include "svm/platt.hpp"
#include "svm/scaler.hpp"
#include "svm/svm.hpp"

namespace hsd::core {

struct TrainParams {
  ClipParams clip;
  ClassifyParams classify;
  /// Core-region features for the per-cluster kernels.
  FeatureParams features;
  /// Core+ambit features for the feedback kernel (density grid on by
  /// default so the ambit ring is visible to it).
  FeatureParams feedbackFeatures{.densityGridN = 8};

  // Iterative learning (Sec. III-D2): C and gamma start at the paper's
  // values and are doubled until the self-training accuracy target is met
  // or the iteration bound is reached.
  double initC = 1000.0;
  double initGamma = 0.01;
  std::size_t maxSelfIter = 8;
  /// Self-training target: both the hotspot-class and non-hotspot-class
  /// accuracy (the latter measured on the *full* raw non-hotspot set, not
  /// just the downsampled centroids) must reach this rate.
  double targetTrainAcc = 0.98;

  // Population balancing (Sec. III-D3).
  Coord shiftNm = 120;          ///< data shifting distance (= l_c / 10)
  bool enableShift = true;      ///< hotspot upsampling via 4-way shifting
  bool balancePopulation = true;  ///< non-hotspot centroid downsampling
  bool enableFeedback = true;   ///< feedback kernel (Sec. III-D4)
  /// Table III's "Basic" baseline: lump every hotspot into one cluster and
  /// train a single huge SVM kernel (no topological classification).
  bool singleKernel = false;

  LayerId layer = 1;        ///< layer the detector operates on
};

/// One trained per-cluster SVM kernel.
struct KernelEntry {
  svm::Scaler scaler;
  svm::SvmModel model;
  std::string topoKey;        ///< hotspot cluster's topology key
  std::size_t hotspotCount = 0;
  double finalC = 0;
  double finalGamma = 0;
  std::size_t selfIterations = 0;
  /// True when this kernel produced self-evaluation extras; only clips
  /// flagged exclusively by such "investigated" kernels are passed through
  /// the feedback kernel (Sec. III-D4).
  bool feedbackApplies = false;
};

/// Summary statistics of a training run (feeds Table III's #hs/#nhs
/// rebalance-ratio column and the convergence experiments).
struct TrainStats {
  std::size_t rawHotspots = 0;
  std::size_t rawNonHotspots = 0;
  std::size_t upsampledHotspots = 0;   ///< after data shifting
  std::size_t balancedNonHotspots = 0;  ///< after centroid downsampling
  std::size_t hotspotClusters = 0;
  std::size_t nonHotspotClusters = 0;
  std::size_t feedbackExtras = 0;  ///< self-evaluation extras that fed back
  double trainSeconds = 0.0;
};

/// The deployable detector: multiple SVM kernels plus an optional feedback
/// kernel. Evaluation: a core is flagged hotspot when any kernel says so;
/// flagged clips then pass the feedback kernel, which may reclaim them as
/// non-hotspots using core+ambit features.
class Detector {
 public:
  TrainParams params;
  std::vector<KernelEntry> kernels;
  bool hasFeedback = false;
  svm::Scaler feedbackScaler;
  svm::SvmModel feedbackModel;
  /// Platt calibration of the max-kernel decision value, fitted on the
  /// training cores; maps decisionValue() to P(hotspot).
  bool hasPlatt = false;
  svm::PlattModel platt;
  TrainStats stats;
  /// Training-set margin distribution per cluster, frozen at train time
  /// and persisted with the model — the drift scorer's reference (see
  /// obs/drift.hpp). Not part of fingerprint(): it summarizes evaluation
  /// behavior, it does not change it.
  bool hasBaseline = false;
  obs::ModelBaseline baseline;

  /// Multiple-kernel OR vote on a core pattern. `bias` shifts every
  /// kernel's decision threshold (positive = stricter, fewer hotspots).
  /// Like every kernel loop, a batch of one through core/scorer.hpp.
  bool evaluateCore(const CorePattern& core, double bias = 0.0) const;

  /// Full clip evaluation: kernels on the core, then the feedback kernel
  /// on the whole clip (when trained and enabled).
  bool evaluateClip(const Clip& clip, double bias = 0.0,
                    bool useFeedback = true) const;

  /// Highest kernel decision value for a core (for threshold sweeps).
  double decisionValue(const CorePattern& core) const;

  /// Calibrated hotspot probability of a core (0.5 at the decision
  /// boundary when no Platt model was fitted).
  double hotspotProbability(const CorePattern& core) const;
  /// The same calibration applied to a decisionValue() already in hand.
  double probabilityOf(double decisionValue) const;

  void save(std::ostream& os) const;
  /// Inverse of save(): parses the rest of `is` with one text::TextCursor.
  /// Throws std::runtime_error on any malformed, truncated or trailing
  /// text and on a count the remaining bytes cannot back — never
  /// std::bad_alloc from a hostile count.
  static Detector load(std::istream& is);

  /// Per-cluster display names in kernel order: the topology key, or
  /// "k<i>" for kernels without one (the single-kernel "*" baseline keeps
  /// its literal key). Slot layout for obs::ModelStatsRecorder.
  std::vector<std::string> clusterNames() const;

  /// Stable 64-bit fingerprint of everything evaluation depends on
  /// (params, kernels, scalers, feedback and Platt models): a direct
  /// content hash of exactly the fields save() writes for the core, each
  /// value by its exact bits, in serialization order. Pure function of
  /// those values (never of addresses or allocation order), so a copy or
  /// a save/load round trip keeps it. Used as the detector component of
  /// stage-cache config keys: retraining or loading a different model
  /// invalidates every cached verdict. The drift baseline, topoKey and
  /// stats are excluded (they cannot change a verdict), so attaching or
  /// dropping a baseline preserves every cached verdict key. Not cached:
  /// the fields are public and mutable, and one call is cheap (a single
  /// pass over the model's numbers).
  std::uint64_t fingerprint() const;

 private:
  /// The fingerprinted core of save(): everything except the baseline.
  void saveCore(std::ostream& os) const;
};

/// Train a detector from labeled clips (labels must be kHotspot /
/// kNonHotspot). Throws std::invalid_argument when either class is absent.
/// Feature builds, per-cluster kernel fits, the self-evaluation sweep and
/// Platt calibration all run on the context's shared pool and are recorded
/// as "train/*" stages; the self-iteration loop polls the context's
/// cancellation flag between iterations.
Detector trainDetector(const std::vector<Clip>& training,
                       const TrainParams& params, engine::RunContext& ctx);

/// Generate the 4-way shifted derivatives of a hotspot clip (Sec. III-D3);
/// includes the original.
std::vector<Clip> shiftDerivatives(const Clip& clip, Coord shiftNm);

}  // namespace hsd::core
