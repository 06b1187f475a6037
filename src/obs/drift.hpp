// Drift scoring: is live traffic still distributed like the traffic the
// model was trained on? A ModelBaseline freezes the per-cluster margin
// distribution at training time (persisted alongside the detector, so a
// loaded model carries its own reference); a DriftScorer compares a
// rolling window of live MarginSketch counts against it with the
// population stability index (PSI) — the standard model-monitoring
// divergence: for baseline proportions p and live proportions q over the
// shared bucket layout,
//
//     psi = sum_i (q_i - p_i) * ln(q_i / p_i)
//
// with Laplace-smoothed proportions so empty buckets never divide by
// zero. Rule of thumb (and the default threshold semantics): psi < 0.1 is
// stable, 0.1..0.25 moderate shift, above that the inputs have moved and
// the model's decisions are suspect — time to retrain or at least to look
// at the low-margin captures.
//
// Mechanics mirror SloTracker: scoring is scrape-driven (the admin
// /modelz, /statsz and /readyz handlers call sampleAndStatus()), samples
// of cumulative bucket counts land in the same bounded obs::SampleRing,
// and a window's live distribution is the delta between now and the
// newest sample at least windowSeconds old (zero-origin fallback while
// history is short). An idle process costs nothing; time is injectable
// for deterministic tests.
//
// Thread-safe: the source recorder's counts are lock-free underneath; the
// source binding is mutex-guarded and the sample ring guards itself
// (scrape-rate, not decision-rate).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/model_stats.hpp"
#include "obs/sample_ring.hpp"

namespace hsd::text {
class TextCursor;
}

namespace hsd::obs {

/// Frozen per-cluster margin distribution (training-set summary). The
/// bucket layout is MarginSketch's, so live recorder counts compare
/// directly. Persisted as a text section of the detector file.
struct ModelBaseline {
  struct Cluster {
    std::string name;
    std::uint64_t hot = 0;
    std::uint64_t cold = 0;
    MarginSketch::Counts buckets{};
  };
  std::vector<Cluster> clusters;

  bool empty() const { return clusters.empty(); }

  /// Text serialization: a "baseline" keyword line, then one name line
  /// plus one counts line per cluster. Round-trips exactly.
  void save(std::ostream& os) const;
  /// Inverse of save(), with the cursor just past the "baseline" keyword
  /// (the detector loader reads it). Throws std::runtime_error on a
  /// malformed section.
  static ModelBaseline load(text::TextCursor& in);
};

struct DriftConfig {
  /// Rolling live window the PSI is computed over.
  double windowSeconds = 300.0;
  /// A cluster is drifted when its PSI exceeds this (0.25 = the classic
  /// "significant shift" bound).
  double psiThreshold = 0.25;
  /// Clusters with fewer live decisions than this in the window are
  /// reported unscored — PSI over a handful of samples is noise.
  std::uint64_t minWindowCount = 50;
  /// Laplace pseudo-count added per bucket when forming proportions.
  double smoothing = 0.5;
  /// Sample-ring bound (caps memory under scrape floods).
  std::size_t maxSamples = 1024;
};

class DriftScorer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Baseline clusters are matched to recorder slots by name; slots
  /// without a baseline match (e.g. the feedback pseudo-cluster) are
  /// reported unscored.
  DriftScorer(ModelBaseline baseline, DriftConfig cfg = {});

  DriftScorer(const DriftScorer&) = delete;
  DriftScorer& operator=(const DriftScorer&) = delete;

  /// The live recorder sampled on every scrape. Must outlive the scorer.
  void setSource(std::shared_ptr<const ModelStatsRecorder> source);

  void sample() { sample(Clock::now()); }
  void sample(Clock::time_point now);

  struct ClusterStatus {
    std::string name;
    std::uint64_t windowCount = 0;  ///< live decisions behind the PSI
    double coveredSeconds = 0.0;
    double psi = 0.0;
    bool scored = false;   ///< baseline matched and enough live traffic
    bool drifted = false;  ///< scored && psi > threshold
  };
  struct Status {
    std::vector<ClusterStatus> clusters;
    bool anyDrifted = false;
  };
  Status status(Clock::time_point now) const;
  Status status() const { return status(Clock::now()); }

  /// The scrape entry point: sample, then score.
  Status sampleAndStatus() {
    const Clock::time_point now = Clock::now();
    sample(now);
    return status(now);
  }

  /// Readiness-style health view: true while no cluster is drifted.
  bool healthy() const { return !status().anyDrifted; }

  /// JSON object for /modelz and the /readyz?degraded detail view.
  std::string toJson(const Status& st) const;
  std::string sampleAndJson() { return toJson(sampleAndStatus()); }

  const DriftConfig& config() const { return cfg_; }
  const ModelBaseline& baseline() const { return baseline_; }

 private:
  /// Cumulative bucket counts per recorder slot.
  using Cumulative = std::vector<MarginSketch::Counts>;

  const ModelBaseline baseline_;
  const DriftConfig cfg_;
  mutable std::mutex mu_;  ///< guards source_ and baselineOf_
  std::shared_ptr<const ModelStatsRecorder> source_;
  /// baselineOf_[slot]: index into baseline_.clusters, or npos.
  std::vector<std::size_t> baselineOf_;
  SampleRing<Cumulative> ring_;
};

}  // namespace hsd::obs
