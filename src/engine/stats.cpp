#include "engine/stats.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace hsd::engine {

template <typename Counters>
std::size_t CounterTable<Counters>::idOf(const std::string& name) {
  const auto [it, fresh] = ids_.try_emplace(name, names_.size());
  if (fresh) names_.push_back(name);
  return it->second;
}

template <typename Counters>
void CounterTable<Counters>::add(const std::string& name, std::size_t tile,
                                 const Counters& c) {
  const std::size_t id = idOf(name);
  auto& row = rows_[tile];
  const auto e = std::find_if(row.begin(), row.end(),
                              [id](const auto& p) { return p.first == id; });
  if (e == row.end()) {
    row.emplace_back(id, c);
  } else {
    e->second += c;
  }
}

template <typename Counters>
void CounterTable<Counters>::add(const CounterTable& other) {
  // Register `other`'s names first so they keep its first-record order
  // even where a later tile row mentions them before an earlier one.
  for (const std::string& name : other.names_) idOf(name);
  for (const auto& [tile, row] : other.rows_)
    for (const auto& [id, c] : row) add(other.names_[id], tile, c);
}

template <typename Counters>
Counters CounterTable<Counters>::rollup(const std::string& name) const {
  Counters out;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const auto& [tile, row] : rows_)
    for (const auto& [id, c] : row)
      if (id == it->second) out += c;
  return out;
}

template <typename Counters>
std::vector<std::pair<std::string, Counters>>
CounterTable<Counters>::rollups() const {
  std::vector<std::pair<std::string, Counters>> out;
  out.reserve(names_.size());
  for (const std::string& name : names_) out.emplace_back(name, Counters{});
  for (const auto& [tile, row] : rows_)
    for (const auto& [id, c] : row) out[id].second += c;
  return out;
}

template <typename Counters>
template <typename F>
void CounterTable<Counters>::forEachEntry(F&& entry) const {
  for (const auto& [tile, row] : rows_) {
    if (tile == kUntiled) continue;
    const std::string prefix = "tile" + std::to_string(tile) + "/";
    for (const auto& [id, c] : row) entry(prefix + names_[id], c);
  }
  for (const auto& [name, c] : rollups()) entry(name, c);
}

template <typename Counters>
void CounterTable<Counters>::clear() {
  names_.clear();
  ids_.clear();
  rows_.clear();
}

template class CounterTable<StageStats>;
template class CounterTable<CacheStats>;

void EngineStats::record(const std::string& stage, std::size_t items,
                         double seconds, std::size_t tile) {
  const std::lock_guard<std::mutex> lock(mu_);
  stages_.add(stage, tile, {1, items, seconds});
}

void EngineStats::recordCache(const std::string& stage, std::size_t hits,
                              std::size_t misses, std::size_t evictions,
                              std::size_t tile) {
  const std::lock_guard<std::mutex> lock(mu_);
  caches_.add(stage, tile, {hits, misses, evictions});
}

void EngineStats::mergeFrom(const EngineStats& other) {
  // Copy first: taking both locks at once would order them by object
  // address, and a consistent cut of `other` is all merging needs.
  CounterTable<StageStats> stages;
  CounterTable<CacheStats> caches;
  {
    const std::lock_guard<std::mutex> lock(other.mu_);
    stages = other.stages_;
    caches = other.caches_;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  stages_.add(stages);
  caches_.add(caches);
}

StageStats EngineStats::rollup(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stages_.rollup(name);
}

CacheStats EngineStats::cacheRollup(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return caches_.rollup(name);
}

std::vector<std::pair<std::string, CacheStats>> EngineStats::cacheRollups()
    const {
  const std::lock_guard<std::mutex> lock(mu_);
  return caches_.rollups();
}

std::string EngineStats::toJson() const {
  obs::JsonWriter w;
  w.beginObject();
  writeJson(w);
  w.endObject();
  return w.str();
}

void EngineStats::writeJson(obs::JsonWriter& w) const {
  // One critical section for both tables: stage and cache counters in a
  // single dump are a consistent cut, not two snapshots a concurrent
  // recorder could land between.
  const std::lock_guard<std::mutex> lock(mu_);
  stages_.forEachEntry([&w](const std::string& key, const StageStats& s) {
    w.key(key).beginObject().field("calls", s.calls);
    w.field("items", s.items).field("seconds", s.seconds).endObject();
  });
  caches_.forEachEntry([&w](const std::string& key, const CacheStats& c) {
    w.key("cache/" + key).beginObject().field("hits", c.hits);
    w.field("misses", c.misses).field("evictions", c.evictions).endObject();
  });
}

void EngineStats::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  stages_.clear();
  caches_.clear();
}

}  // namespace hsd::engine
