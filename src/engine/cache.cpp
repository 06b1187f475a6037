#include "engine/cache.hpp"

namespace hsd::engine {

StageCache::StageCache(std::size_t capacity,
                       std::shared_ptr<obs::TraceRecorder> tracer)
    : capacity_(capacity == 0 ? 1 : capacity),
      shardCount_(capacity_ >= kShardThreshold ? kMaxShards : 1),
      tracer_(std::move(tracer)),
      shards_(new Shard[shardCount_]) {}

std::optional<bool> StageCache::find(const CacheKey& key) {
  obs::Span span(tracer_.get(), "cache/lookup", "cache");
  Shard& sh = shardFor(key);
  const std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.map.find(key);
  if (it == sh.map.end()) {
    ++sh.counters.misses;
    span.arg("hit", 0);
    return std::nullopt;
  }
  sh.lru.splice(sh.lru.begin(), sh.lru, it->second);  // promote to most recent
  ++sh.counters.hits;
  span.arg("hit", 1);
  return it->second->value;
}

std::size_t StageCache::insert(const CacheKey& key, bool value) {
  Shard& sh = shardFor(key);
  const std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.map.find(key);
  if (it != sh.map.end()) {
    // Refresh: same key recomputed (e.g. two threads raced on one miss).
    it->second->value = value;
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    return 0;
  }
  sh.lru.push_front(Entry{key, value});
  sh.map.emplace(key, sh.lru.begin());
  if (size_.value.fetch_add(1, std::memory_order_relaxed) < capacity_)
    return 0;
  // Full: this shard gives up its least recently used entry.
  sh.map.erase(sh.lru.back().key);
  sh.lru.pop_back();
  size_.value.fetch_sub(1, std::memory_order_relaxed);
  ++sh.counters.evictions;
  return 1;
}

std::size_t StageCache::size() const {
  return size_.value.load(std::memory_order_relaxed);
}

StageCache::Counters StageCache::counters() const {
  Counters total;
  for (std::size_t s = 0; s < shardCount_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mu);
    total.hits += shards_[s].counters.hits;
    total.misses += shards_[s].counters.misses;
    total.evictions += shards_[s].counters.evictions;
  }
  total.entries = size();
  return total;
}

void StageCache::clear() {
  for (std::size_t s = 0; s < shardCount_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mu);
    size_.value.fetch_sub(shards_[s].map.size(), std::memory_order_relaxed);
    shards_[s].lru.clear();
    shards_[s].map.clear();
  }
}

}  // namespace hsd::engine
