// Per-stage instrumentation registry: every pipeline stage (and any code
// that wants coarse phase timing) records (calls, items, wall seconds)
// under a stage name and a tile — a tile id in tiled runs, kUntiled
// otherwise. Stage-cache counters (hits, misses, evictions) live in a
// second table of the same shape. One EngineStats lives in each
// RunContext, so a whole detection run — extraction, evaluation, removal,
// training — is observable from a single object and dumpable as JSON for
// the bench harness.
//
// JSON key order is a property of the table, not of thread timing: first
// the per-tile entries ("tile<k>/<stage>"), tiles in id order and stages
// in first-record order within each tile; then one entry per stage name,
// summed over every tile and the untiled records, in first-record order
// (not sorted by name, so ENGINE_STATS lines stay stable as stages are
// added or renamed). An untiled run has no per-tile entries: its JSON is
// just the per-stage entries.
#pragma once

#include <cstddef>
#include <chrono>
#include <limits>
#include <map>
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

/// The tile of a record made outside any tile (monolithic runs, removal,
/// training).
inline constexpr std::size_t kUntiled =
    std::numeric_limits<std::size_t>::max();

/// Accumulated counters of one named stage.
struct StageStats {
  std::size_t calls = 0;    ///< number of batch invocations
  std::size_t items = 0;    ///< total items processed
  double seconds = 0.0;     ///< total wall time inside the stage

  StageStats& operator+=(const StageStats& o) {
    calls += o.calls;
    items += o.items;
    seconds += o.seconds;
    return *this;
  }
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

  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    return *this;
  }
  friend constexpr auto operator<=>(const CacheStats&,
                                    const CacheStats&) = default;
};

/// Counters keyed by (stage name, tile). Not thread-safe: EngineStats
/// guards its tables with one mutex.
template <typename Counters>
class CounterTable {
 public:
  void add(const std::string& name, std::size_t tile, const Counters& c);
  /// Add every counter of `other`; its names keep their relative order.
  void add(const CounterTable& other);
  /// `name` summed over every tile and the untiled records.
  Counters rollup(const std::string& name) const;
  /// One roll-up per stage name, in first-record order.
  std::vector<std::pair<std::string, Counters>> rollups() const;
  /// Per-tile entries as "tile<k>/<name>", then rollups(), each passed to
  /// `entry(key, counters)`.
  template <typename F>
  void forEachEntry(F&& entry) const;
  void clear();

 private:
  /// Id of `name`, registering it on first sight.
  std::size_t idOf(const std::string& name);

  std::vector<std::string> names_;  ///< first-record order
  std::unordered_map<std::string, std::size_t> ids_;
  /// tile -> (name id, counters) in first-record order within the tile.
  std::map<std::size_t, std::vector<std::pair<std::size_t, Counters>>>
      rows_;
};

/// Thread-safe (stage, tile) -> StageStats registry, plus the per-stage
/// cache counters. Tiles record concurrently into one registry.
class EngineStats {
 public:
  /// Add one invocation of `stage` covering `items` items in `seconds`.
  void record(const std::string& stage, std::size_t items, double seconds,
              std::size_t tile = kUntiled);

  /// Add stage-cache lookup/eviction deltas for `stage`.
  void recordCache(const std::string& stage, std::size_t hits,
                   std::size_t misses, std::size_t evictions,
                   std::size_t tile = kUntiled);

  /// Fold another registry's counters into this one (serving fans one
  /// request's tiles across pooled contexts and merges their stats back
  /// into the request's primary context).
  void mergeFrom(const EngineStats& other);

  /// `name` summed over every tile and the untiled records (zeros when
  /// the stage never ran).
  StageStats rollup(const std::string& name) const;
  CacheStats cacheRollup(const std::string& name) const;

  /// Every cached stage's roll-up, in first-record order.
  std::vector<std::pair<std::string, CacheStats>> cacheRollups() const;

  /// JSON object: {"stage": {"calls": N, "items": N, "seconds": S}, ...,
  /// "cache/stage": {"hits": N, "misses": N, "evictions": N}, ...}, in
  /// the key order described at the top of this file.
  std::string toJson() const;
  /// The same entries as members of the object `w` has open (how
  /// ENGINE_STATS puts the model fingerprint first).
  void writeJson(obs::JsonWriter& w) const;

  void clear();

 private:
  mutable std::mutex mu_;
  CounterTable<StageStats> stages_;
  CounterTable<CacheStats> caches_;
};

/// RAII timer: records one invocation into `stats` on destruction.
/// `items` can be adjusted before the scope closes (e.g. filter stages
/// that only learn their output size at the end). With a non-null
/// `tracer` (pass RunContext::tracer()) each invocation additionally
/// lands in the trace as one "stage"-category span carrying the item
/// count (and, for a tiled stage, the tile) — one span per batch
/// invocation.
class StageTimer {
 public:
  StageTimer(EngineStats& stats, std::string stage, std::size_t items,
             obs::TraceRecorder* tracer = nullptr,
             std::size_t tile = kUntiled)
      : stats_(stats),
        stage_(std::move(stage)),
        items_(items),
        tracer_(tracer),
        tile_(tile),
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
                  std::chrono::duration<double>(t1 - t0_).count(), tile_);
    if (tracer_ != nullptr)
      tracer_->recordSpan(stage_, "stage", t0_, t1, {"items", items_},
                          tile_ == kUntiled ? obs::TraceArg{}
                                            : obs::TraceArg{"tile", tile_});
  }

  ~StageTimer() { stop(); }

 private:
  EngineStats& stats_;
  std::string stage_;
  std::size_t items_;
  obs::TraceRecorder* tracer_;
  std::size_t tile_;
  std::chrono::steady_clock::time_point t0_;
  bool done_ = false;
};

}  // namespace hsd::engine
