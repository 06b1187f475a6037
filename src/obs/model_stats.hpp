// Model-quality observability: what the detector's SVM kernels are
// actually deciding, per topology cluster, while traffic flows — the
// telemetry layer that the active-learning roadmap item builds on.
//
// Three pieces, one recorder:
//
//  1. MarginSketch — a fixed-size, mergeable quantile sketch over signed
//     SVM decision values. Symmetric log-spaced buckets mirrored around
//     zero (the same exponential-bucket idea as obs::Histogram, extended
//     to negative values, which decision margins mostly are). Bucketing
//     is a pure function of the value and merging is bucket-count
//     addition, so any partition of the same observations — per thread,
//     per tile, per context — sums to the identical sketch. That is what
//     makes /modelz quantiles byte-stable across threads {1,8} and
//     tiled-vs-monolithic runs.
//
//  2. ModelStatsRecorder — per-cluster margin sketches plus hot/cold
//     verdict counters, accumulated lock-free into per-thread slots
//     (an obs::ThreadRegistry, like TraceRecorder/LogRecorder: per-thread
//     state is allocated once on the thread's first record and never
//     again; recording is relaxed-atomic increments only). Optionally
//     bound to a MetricsRegistry, where each cluster contributes
//     hsd_model_verdicts_total{cluster=,verdict=} counters to the
//     Prometheus exposition.
//
//  3. The low-margin capture ring — fixed-size records (anchor coords,
//     window content hash, margin, trace id) of decisions that landed
//     within `captureWidth` of the decision boundary, one obs::ThreadRing
//     per thread (drop-oldest), zero steady-state allocation. These
//     borderline windows are exactly the batch-active-learning candidate
//     feed.
//
// Live snapshots (same contract as the other recorders): snapshot() may
// run while threads record. It is race-free: counts are relaxed reads and
// every capture it returns is whole; a capture overwritten while being
// copied counts as dropped. The recorder must outlive every thread that
// records into it. Bind metrics before recording starts.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/thread_ring.hpp"
#include "obs/trace_id.hpp"

namespace hsd::obs {

/// Fixed symmetric log-bucket layout for signed decision values, plus the
/// arithmetic over a bucket-count array. Stateless: the recorder, the
/// persisted baseline, and the drift scorer all share one layout, so
/// their counts are directly comparable.
struct MarginSketch {
  /// Smallest magnitude resolved; |v| below it lands in the center
  /// ("near-boundary") bucket.
  static constexpr double kStart = 1e-3;
  static constexpr double kFactor = 2.0;
  static constexpr std::size_t kBucketsPerSide = 24;  ///< up to |v| ~ 1.6e4
  static constexpr std::size_t kNumBuckets = 2 * kBucketsPerSide + 1;

  using Counts = std::array<std::uint64_t, kNumBuckets>;

  /// Bucket index of a signed margin: [0, kBucketsPerSide) negative
  /// magnitudes largest-first, kBucketsPerSide the center, then positive
  /// magnitudes smallest-first. NaN maps to the center bucket (a NaN
  /// decision predicts -1 at the boundary; see SvmModel::predict).
  static std::size_t bucketOf(double margin);

  /// [lower, upper) value range represented by a bucket (the outermost
  /// buckets clamp to +-infinity on the open side).
  static double lowerBound(std::size_t bucket);
  static double upperBound(std::size_t bucket);

  static std::uint64_t total(const Counts& c);

  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// bucket holding the target rank — obs::Histogram::quantile extended
  /// to the signed layout. Empty counts report 0.
  static double quantile(const Counts& c, double q);
};

class ModelStatsRecorder {
 public:
  struct Options {
    /// |margin - bias| below this captures the decision into the
    /// low-margin ring (0 disables capture).
    double captureWidth = 0.25;
    /// Capture-ring capacity per recording thread.
    std::size_t captureCapacity = 256;
    /// Fingerprint of the model whose kernels the slots mirror
    /// (core::Detector::fingerprint()); toJson() leads with it as
    /// "fingerprint" when nonzero.
    std::uint64_t modelFingerprint = 0;
  };

  /// Name of the reserved pseudo-cluster recording the feedback kernel's
  /// reclaim decisions (the evaluation fallback path — appended after the
  /// per-kernel cluster slots).
  static constexpr const char* kFeedbackCluster = "feedback";

  /// One slot per kernel cluster, in kernel order, plus the trailing
  /// feedback slot. Empty names render as "k<i>". (Two overloads rather
  /// than `opts = {}`: gcc rejects brace-defaulting a nested class with
  /// member initializers before the enclosing class is complete.)
  explicit ModelStatsRecorder(std::vector<std::string> clusterNames)
      : ModelStatsRecorder(std::move(clusterNames), Options{}) {}
  ModelStatsRecorder(std::vector<std::string> clusterNames, Options opts);

  ModelStatsRecorder(const ModelStatsRecorder&) = delete;
  ModelStatsRecorder& operator=(const ModelStatsRecorder&) = delete;

  std::size_t numSlots() const { return names_.size(); }
  std::size_t feedbackSlot() const { return names_.size() - 1; }
  const std::vector<std::string>& clusterNames() const { return names_; }
  const Options& options() const { return opts_; }

  /// Register hsd_model_verdicts_total{cluster=,verdict=} counters for
  /// every slot; record() then bumps them alongside the sketch. Call
  /// before any thread records (the pointers are installed unguarded).
  void bindMetrics(MetricsRegistry& registry);

  /// Record one decision: `margin` lands in the slot's sketch, `hot`
  /// bumps the slot's verdict counter. Out-of-range slots are dropped
  /// (counted). Lock-free and allocation-free after the calling thread's
  /// first record.
  void record(std::size_t slot, double margin, bool hot);

  /// True when a decision this close to the boundary should be captured —
  /// the caller computes the (possibly expensive) content hash only then.
  bool shouldCapture(double distanceToBoundary) const;

  /// Append one low-margin record to the calling thread's capture ring
  /// (drop-oldest). The trace id is the calling thread's current one.
  void capture(std::size_t slot, double margin, std::int64_t anchorX,
               std::int64_t anchorY, std::uint64_t contentHash);

  /// One captured borderline decision (fixed-size ring slot).
  struct Capture {
    std::int64_t anchorX = 0;
    std::int64_t anchorY = 0;
    std::uint64_t contentHash = 0;
    std::int64_t tsNs = 0;  ///< since recorder construction
    TraceId trace;
    double margin = 0.0;
    std::uint32_t cluster = 0;
  };

  struct ClusterCounts {
    std::string name;
    std::uint64_t hot = 0;
    std::uint64_t cold = 0;
    MarginSketch::Counts buckets{};
    std::uint64_t count() const { return hot + cold; }
  };

  /// Merged view: per-cluster counts summed across threads (order
  /// independent — identical whatever the thread layout), captures in
  /// per-thread ring order.
  struct Snapshot {
    std::vector<ClusterCounts> clusters;
    std::vector<Capture> captures;
    std::uint64_t capturedTotal = 0;    ///< captures.size() + droppedCaptures
    std::uint64_t droppedCaptures = 0;  ///< overwritten (wrap or mid-copy)
    std::uint64_t droppedRecords = 0;   ///< out-of-range slot drops
  };
  Snapshot snapshot() const;

  /// Merged per-cluster cumulative bucket counts only (the drift scorer's
  /// sampling input; cheaper than a full snapshot).
  std::vector<MarginSketch::Counts> bucketCounts() const;

  /// JSON object for /modelz, the /statsz "model" section and the
  /// --model-stats-out file: per-cluster counts and margin quantiles plus
  /// a capture-ring summary with at most `captureLimit` records (most
  /// recent win), oldest first. A non-empty `clusterFilter` restricts
  /// both the cluster list and the captures to that cluster (callers
  /// validate the name against clusterNames() first).
  std::string toJson(std::size_t captureLimit = 64,
                     std::string_view clusterFilter = {}) const;

 private:
  struct ThreadState {
    ThreadState(std::size_t slots, std::size_t captureCapacity)
        : counts(slots * (MarginSketch::kNumBuckets + 2)),
          ring(captureCapacity) {}
    /// slots * kNumBuckets relaxed counters, then slots * 2 verdict
    /// counters (hot, cold) — one flat allocation per thread, made once.
    std::vector<std::atomic<std::uint64_t>> counts;
    ThreadRing<Capture> ring;
  };

  std::size_t bucketBase(std::size_t slot) const {
    return slot * MarginSketch::kNumBuckets;
  }
  std::size_t verdictBase(std::size_t slot) const {
    return names_.size() * MarginSketch::kNumBuckets + slot * 2;
  }

  const std::vector<std::string> names_;  ///< incl. trailing feedback slot
  const Options opts_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> droppedRecords_{0};

  /// Bound metric counters per slot ({hot, cold}); nullptr when unbound.
  std::vector<std::pair<Counter*, Counter*>> metricCounters_;

  ThreadRegistry<ThreadState> threads_;
};

/// One-branch-when-off convenience, mirroring obs::logTo — evaluation
/// sites hold a ModelStatsRecorder* that is nullptr when the plane is off.
inline void recordTo(ModelStatsRecorder* rec, std::size_t slot, double margin,
                     bool hot) {
  if (rec != nullptr) rec->record(slot, margin, hot);
}

}  // namespace hsd::obs
