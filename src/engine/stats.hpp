// Per-stage instrumentation registry: every pipeline stage (and any code
// that wants coarse phase timing) records (calls, items, wall seconds)
// under a stage name. One EngineStats lives in each RunContext, so a whole
// detection run — extraction, evaluation, removal, training — is observable
// from a single object and dumpable as JSON for the bench harness.
//
// Stage and cache entries are reported in *registration order* (first
// record wins the slot), not sorted by name, so ENGINE_STATS JSON lines
// and golden-report diffs stay stable as stages are added or renamed.
#pragma once

#include <cstddef>
#include <chrono>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace hsd::obs {
class JsonWriter;
}

namespace hsd::engine {

/// Accumulated counters of one named stage.
struct StageStats {
  std::size_t calls = 0;    ///< number of batch invocations
  std::size_t items = 0;    ///< total items processed
  double seconds = 0.0;     ///< total wall time inside the stage

  friend constexpr auto operator<=>(const StageStats&,
                                    const StageStats&) = default;
};

/// Accumulated stage-cache counters of one cached stage (see
/// engine/cache.hpp): lookups that hit, lookups that missed (and were
/// recomputed), and entries this stage's inserts evicted.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;

  friend constexpr auto operator<=>(const CacheStats&,
                                    const CacheStats&) = default;
};

/// Thread-safe stage-name -> StageStats registry (plus per-stage cache
/// counters). Iteration order of snapshots and JSON is registration order.
///
/// Tiled runs record the same logical stage once per tile under
/// namespaced names ("tile<k>/extract/screen", "tile<k>/eval/svm", ...)
/// so per-tile timings never collide. Consumers that want the monolithic
/// view use `rollup`/`cacheRollup` (per-tile counters summed under the
/// plain stage name), and `toJson` appends those aggregates after the raw
/// entries — existing ENGINE_STATS consumers keep seeing "extract/screen"
/// whether or not the run was tiled.
class EngineStats {
 public:
  /// Add one invocation of `stage` covering `items` items in `seconds`.
  void record(const std::string& stage, std::size_t items, double seconds);

  /// Add stage-cache lookup/eviction deltas for `stage`.
  void recordCache(const std::string& stage, std::size_t hits,
                   std::size_t misses, std::size_t evictions);

  /// Pin a registration slot for `stage` without recording anything.
  /// The tiled evaluator declares every per-tile stage name up front, in
  /// tile order, so the JSON key order stays deterministic no matter
  /// which tile's worker records first.
  void declare(const std::string& stage);
  void declareCache(const std::string& stage);

  /// Fold another registry's counters into this one (serving fans one
  /// request's tiles across pooled contexts and merges their stats back
  /// into the request's primary context). Names merge into existing slots
  /// or register fresh ones in `other`'s order.
  void mergeFrom(const EngineStats& other);

  /// Copy of the current registry, in registration order.
  std::vector<std::pair<std::string, StageStats>> snapshot() const;

  /// Cache counters of every cached stage, in registration order.
  std::vector<std::pair<std::string, CacheStats>> cacheSnapshot() const;

  /// Stats of one stage (zeros when the stage never ran).
  StageStats stage(const std::string& name) const;

  /// Cache counters of one stage (zeros when never recorded).
  CacheStats cache(const std::string& name) const;

  /// Aggregated view across tiles: the exact-name counters plus every
  /// "tile<k>/<name>" instance summed in. Equals `stage(name)` for
  /// monolithic runs.
  StageStats rollup(const std::string& name) const;
  CacheStats cacheRollup(const std::string& name) const;

  /// JSON object: {"stage": {"calls": N, "items": N, "seconds": S}, ...,
  /// "cache/stage": {"hits": N, "misses": N, "evictions": N}, ...}.
  /// Keys appear in registration order; suitable for appending to
  /// BENCH_*.json trackers and for byte-stable ENGINE_STATS diffs.
  /// When tile-namespaced stages are present, their roll-ups (summed
  /// under the plain stage name, first-tile-appearance order) follow the
  /// raw entries, so existing consumers keep their keys. Monolithic runs
  /// emit exactly the pre-tiling format.
  std::string toJson() const;
  /// The same entries as members of the object `w` has open (how
  /// ENGINE_STATS puts the model fingerprint first).
  void writeJson(obs::JsonWriter& w) const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, StageStats>> stages_;
  std::unordered_map<std::string, std::size_t> stageIndex_;
  std::vector<std::pair<std::string, CacheStats>> caches_;
  std::unordered_map<std::string, std::size_t> cacheIndex_;
};

/// RAII timer: records one invocation into `stats` on destruction.
/// `items` can be adjusted before the scope closes (e.g. filter stages
/// that only learn their output size at the end). With a non-null
/// `tracer` (pass RunContext::tracer()) each invocation additionally
/// lands in the trace as one "stage"-category span carrying the item
/// count — one span per batch invocation.
class StageTimer {
 public:
  StageTimer(EngineStats& stats, std::string stage, std::size_t items,
             obs::TraceRecorder* tracer = nullptr)
      : stats_(stats),
        stage_(std::move(stage)),
        items_(items),
        tracer_(tracer),
        t0_(std::chrono::steady_clock::now()) {}

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void setItems(std::size_t items) { items_ = items; }

  /// Record now instead of at scope exit (for mid-function stage
  /// boundaries); the destructor then does nothing.
  void stop() {
    if (done_) return;
    done_ = true;
    const auto t1 = std::chrono::steady_clock::now();
    stats_.record(stage_, items_,
                  std::chrono::duration<double>(t1 - t0_).count());
    if (tracer_ != nullptr)
      tracer_->recordSpan(stage_, "stage", t0_, t1, {"items", items_});
  }

  ~StageTimer() { stop(); }

 private:
  EngineStats& stats_;
  std::string stage_;
  std::size_t items_;
  obs::TraceRecorder* tracer_;
  std::chrono::steady_clock::time_point t0_;
  bool done_ = false;
};

}  // namespace hsd::engine
