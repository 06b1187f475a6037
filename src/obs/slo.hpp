// SLO tracking: rolling multi-window availability and latency-objective
// attainment, with error-budget burn rates, computed from the live
// MetricsRegistry counters/histograms the server already maintains — no
// second bookkeeping path on the request flow.
//
// Model (the standard SRE formulation): an availability SLO is a target
// fraction of good requests (e.g. 0.999); a latency SLO is a target
// fraction of requests completing within an objective (e.g. 95% under
// 250ms). The *burn rate* of a window is
//
//     burn = (1 - attainment) / (1 - target)
//
// i.e. how many times faster than "budget-neutral" the error budget is
// being spent: 1.0 means exactly on target, >1 means the budget shrinks.
// Multi-window tracking (default 1m/5m/30m) makes the signal both fast
// (short window catches a spike) and stable (long window resists blips).
//
// Mechanics: the tracker holds cumulative-count sources (good/total
// closures over Counter values, plus a latency Histogram whose buckets
// give "completed within objective" cumulatively). sample() pushes one
// (time, counts) tuple into a bounded obs::SampleRing; a window's
// attainment is the delta between now and the newest sample at least
// that far back.
// Sampling is scrape-driven (the admin /sloz, /statsz and /readyz
// handlers call sampleAndStatus()), so an idle process costs nothing;
// time is injectable for deterministic tests.
//
// Thread-safe: sources are read outside any lock (they are lock-free
// atomics underneath); the sample ring guards itself.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sample_ring.hpp"

namespace hsd::obs {

struct SloConfig {
  double availabilityTarget = 0.999;  ///< good/total objective
  /// Latency objective: `latencyTarget` of requests complete within
  /// `latencyObjectiveSeconds`. The objective is snapped DOWN to the
  /// nearest histogram bucket bound at attach time (cumulative bucket
  /// counts are only available at bounds).
  double latencyObjectiveSeconds = 1.0;
  double latencyTarget = 0.95;
  /// Rolling windows, seconds, shortest first (rendered in this order).
  std::vector<double> windowsSeconds = {60.0, 300.0, 1800.0};
  /// A window is "burning" when either burn rate exceeds this.
  double degradedBurnRate = 1.0;
  /// Sample-ring bound: oldest samples beyond the longest window (plus
  /// slack) are pruned; this caps memory under scrape floods.
  std::size_t maxSamples = 4096;
};

class SloTracker {
 public:
  using CountFn = std::function<std::uint64_t()>;
  using Clock = std::chrono::steady_clock;

  explicit SloTracker(SloConfig cfg = {});

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Availability source: cumulative good and total completed counts
  /// (monotone; Counter::value closures). Both must stay callable for
  /// the tracker's lifetime.
  void setAvailabilitySource(CountFn good, CountFn total);

  /// Latency source: the cumulative run-latency histogram. `hist` must
  /// outlive the tracker. The effective objective (largest bound <=
  /// configured objective) is reported in the JSON.
  void setLatencySource(const Histogram* hist);

  /// Push one sample now / at `now` (injectable for tests).
  void sample() { sample(Clock::now()); }
  void sample(Clock::time_point now);

  /// Per-window SLO arithmetic over the sample ring (no new sample).
  struct Window {
    double seconds = 0.0;         ///< configured width
    double coveredSeconds = 0.0;  ///< actual history behind the delta
    std::uint64_t total = 0;      ///< completed requests in the window
    std::uint64_t good = 0;
    double availability = 1.0;    ///< good/total (1.0 when total == 0)
    double availabilityBurn = 0.0;
    std::uint64_t latencyTotal = 0;
    std::uint64_t latencyFast = 0;  ///< completed within the objective
    double latencyAttainment = 1.0;
    double latencyBurn = 0.0;
    bool burning = false;  ///< either burn > degradedBurnRate, with traffic
  };
  struct Status {
    std::vector<Window> windows;
    bool degraded = false;  ///< any window burning
  };
  Status status(Clock::time_point now) const;
  Status status() const { return status(Clock::now()); }

  /// The scrape entry point: sample, then report.
  Status sampleAndStatus() {
    const Clock::time_point now = Clock::now();
    sample(now);
    return status(now);
  }

  bool degraded() const { return status().degraded; }

  /// JSON object for /sloz and the /statsz "slo" section: targets plus
  /// one entry per window.
  std::string toJson(const Status& st) const;
  std::string sampleAndJson() { return toJson(sampleAndStatus()); }

  const SloConfig& config() const { return cfg_; }
  /// The bucket-snapped latency objective actually measured (0 when no
  /// latency source is attached).
  double effectiveLatencyObjective() const { return objectiveBound_; }

 private:
  struct Counts {
    std::uint64_t good = 0;
    std::uint64_t total = 0;
    std::uint64_t latencyTotal = 0;
    std::uint64_t latencyFast = 0;
  };

  Counts read() const;  ///< poll the sources

  const SloConfig cfg_;
  CountFn good_;
  CountFn total_;
  const Histogram* hist_ = nullptr;
  std::size_t objectiveBucket_ = 0;  ///< buckets [0..objectiveBucket_] fast
  double objectiveBound_ = 0.0;
  bool hasObjectiveBucket_ = false;
  SampleRing<Counts> ring_;
};

}  // namespace hsd::obs
