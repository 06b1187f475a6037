// Content-addressed stage cache for incremental re-evaluation. A cache
// entry is the memoized result of one pipeline stage on one window of
// layout content, keyed by a triple of 64-bit hashes:
//
//   (stage name, stage config fingerprint, canonicalized window geometry)
//
// The geometry component is translation-invariant (hashWindowContent in
// geom/hashing.hpp), so an unchanged window re-hashes to the same key on
// the next run — and identical repeated patterns at different positions
// share one entry. Any parameter change flows into the config fingerprint
// and invalidates cleanly; a single-rect edit changes the geometry hash of
// exactly the windows that see that rect.
//
// Correctness contract: cached values must be *pure functions of the key*
// (same key -> byte-identical value no matter which thread or run computed
// it). Under that contract a warm run returns byte-identical reports to a
// cold run at any thread count; LRU scheduling only changes hit rates,
// never results. The full 192-bit key triple is stored and compared on
// lookup; residual collision risk is the 64-bit content hash itself
// (~2^-64 per pair, negligible at bounded capacity — see DESIGN.md §6).
//
// The cache is opt-in: attach one to a RunContext and the extract/* and
// eval/* stages use it; without one, nothing changes. Thread-safe; bounded
// capacity with LRU eviction; hit/miss/evict counters are tallied here and
// surfaced per-stage in EngineStats JSON by the call sites.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "geom/hashing.hpp"
#include "obs/trace.hpp"
#include "par/cacheline.hpp"

namespace hsd::engine {

/// Cache key triple. All three components are stable 64-bit hashes; the
/// whole triple participates in equality, the combined mix only buckets.
struct CacheKey {
  std::uint64_t stage = 0;     ///< hashString(stage name)
  std::uint64_t config = 0;    ///< parameter-struct fingerprint
  std::uint64_t geometry = 0;  ///< canonicalized window-content hash

  friend constexpr bool operator==(const CacheKey&, const CacheKey&) = default;

  constexpr std::uint64_t combined() const {
    return hashCombine(hashCombine(stage, config), geometry);
  }

  static CacheKey of(std::string_view stageName, std::uint64_t config,
                     std::uint64_t geometry) {
    return {hashString(stageName), config, geometry};
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return std::size_t(k.combined());
  }
};

/// Bounded, thread-safe, LRU-evicting map from CacheKey to a verdict
/// boolean: both cached stages (extract/screen and eval/verdict) store a
/// pass/fail bit per window.
///
/// Concurrency audit (multi-request serving): the cache is split into
/// independent shards, each a cache-line-aligned (mutex, LRU list, map,
/// counters) unit selected by the top bits of the key hash. Every
/// operation on one key — lookup, LRU promotion, insert, eviction — runs
/// under that shard's mutex and `find` copies the value out *before*
/// releasing it, so an eviction racing a hit on the same key either
/// misses cleanly or returns the complete value; no caller ever observes
/// a dangling or partially-written entry. Two requests racing on the same
/// miss both compute and insert (the second insert is a refresh, not a
/// duplicate) — harmless because values are pure functions of their key.
/// Pinned under TSan by the concurrent hammer test in
/// tests/test_stage_cache.cpp (tiny capacity, many threads, continuous
/// eviction).
///
/// The bound is global: one atomic entry count spans the shards, a shard
/// grows until the whole cache holds capacity() entries, and from then on
/// each insert evicts the least recently used entry of its own shard
/// (the new entry itself when its shard held nothing else). So
/// capacity() distinct keys always fit. Sharding kicks in only at
/// serving-scale capacity (>= kShardThreshold): small caches keep one
/// shard, whose eviction is exact global LRU (which the eviction-order
/// unit tests rely on); sharded eviction is LRU *per shard*. One mutex
/// over one LRU was measured against this on the wire-tiled-cold
/// benchmark (four tile threads on a 4-core Xeon, every lookup a miss and
/// every insert an eviction): the memory misses of every operation then
/// queue behind one lock, and the request p50 rose 10-18 %.
class StageCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;
  /// Capacities below this stay single-sharded (exact LRU).
  static constexpr std::size_t kShardThreshold = 4096;
  static constexpr std::size_t kMaxShards = 16;  // power of two

  /// `capacity` == 0 is clamped to 1 (a cache that can hold something).
  /// With a non-null `tracer`, every lookup is recorded as one
  /// "cache"-category span annotated hit=0/1 (see obs/trace.hpp). The
  /// tracer is fixed at construction — no set-while-racing hazard — and
  /// must outlive the cache.
  explicit StageCache(std::size_t capacity = kDefaultCapacity,
                      std::shared_ptr<obs::TraceRecorder> tracer = nullptr);

  StageCache(const StageCache&) = delete;
  StageCache& operator=(const StageCache&) = delete;

  /// Lifetime totals across every stage using this cache.
  struct Counters {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t entries = 0;  ///< current resident entry count
  };

  /// The value under `key`, or nullopt on a miss.
  std::optional<bool> find(const CacheKey& key);

  /// Insert (or refresh) `key`; returns how many entries were evicted to
  /// make room (0 or 1 — capacity is enforced per insert).
  std::size_t insert(const CacheKey& key, bool value);

  std::size_t capacity() const { return capacity_; }
  std::size_t shardCount() const { return shardCount_; }
  std::size_t size() const;
  Counters counters() const;
  void clear();

 private:
  struct Entry {
    CacheKey key;
    bool value;
  };

  /// One independent cache unit on its own cache line(s): concurrent
  /// lookups on different shards touch disjoint lines, so neither the
  /// mutexes nor the hot list heads false-share.
  struct alignas(par::kCacheLineSize) Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;      ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> map;
    Counters counters;
  };
  static_assert(alignof(Shard) == par::kCacheLineSize,
                "shards must start on cache-line boundaries");
  static_assert(sizeof(Shard) % par::kCacheLineSize == 0,
                "adjacent shards must not share a line");

  Shard& shardFor(const CacheKey& key) {
    // Top bits: the map's bucketing consumes the low bits of the same
    // mix, so shard choice and bucket choice stay decorrelated.
    return shards_[(key.combined() >> 60) & (shardCount_ - 1)];
  }

  const std::size_t capacity_;
  const std::size_t shardCount_;  ///< power of two
  const std::shared_ptr<obs::TraceRecorder> tracer_;
  std::unique_ptr<Shard[]> shards_;
  /// Entries across every shard; written by every insert, so it keeps a
  /// line of its own.
  par::CachePadded<std::atomic<std::size_t>> size_{};
};

}  // namespace hsd::engine
