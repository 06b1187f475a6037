#include "engine/stats.hpp"

#include "obs/json.hpp"

namespace hsd::engine {

namespace {

/// Index of `name` in the (vector, index-map) registry, appending a fresh
/// slot on first sight — this is what pins registration order.
template <typename V, typename M>
std::size_t slotOf(V& vec, M& index, const std::string& name) {
  const auto it = index.find(name);
  if (it != index.end()) return it->second;
  const std::size_t slot = vec.size();
  vec.emplace_back(name, typename V::value_type::second_type{});
  index.emplace(name, slot);
  return slot;
}

/// Length of the "tile<k>/" prefix of a tile-namespaced stage name, or 0
/// when `name` is a plain (monolithic) stage.
std::size_t tilePrefixLen(const std::string& name) {
  if (name.rfind("tile", 0) != 0) return 0;
  std::size_t i = 4;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
  if (i == 4 || i >= name.size() || name[i] != '/') return 0;
  return i + 1;
}

}  // namespace

void EngineStats::record(const std::string& stage, std::size_t items,
                         double seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  StageStats& s = stages_[slotOf(stages_, stageIndex_, stage)].second;
  ++s.calls;
  s.items += items;
  s.seconds += seconds;
}

void EngineStats::recordCache(const std::string& stage, std::size_t hits,
                              std::size_t misses, std::size_t evictions) {
  const std::lock_guard<std::mutex> lock(mu_);
  CacheStats& c = caches_[slotOf(caches_, cacheIndex_, stage)].second;
  c.hits += hits;
  c.misses += misses;
  c.evictions += evictions;
}

void EngineStats::declare(const std::string& stage) {
  const std::lock_guard<std::mutex> lock(mu_);
  slotOf(stages_, stageIndex_, stage);
}

void EngineStats::declareCache(const std::string& stage) {
  const std::lock_guard<std::mutex> lock(mu_);
  slotOf(caches_, cacheIndex_, stage);
}

void EngineStats::mergeFrom(const EngineStats& other) {
  // Snapshot first: taking both locks at once would order them by object
  // address, and a consistent cut of `other` is all merging needs.
  const auto stages = other.snapshot();
  const auto caches = other.cacheSnapshot();
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, s] : stages) {
    StageStats& dst = stages_[slotOf(stages_, stageIndex_, name)].second;
    dst.calls += s.calls;
    dst.items += s.items;
    dst.seconds += s.seconds;
  }
  for (const auto& [name, c] : caches) {
    CacheStats& dst = caches_[slotOf(caches_, cacheIndex_, name)].second;
    dst.hits += c.hits;
    dst.misses += c.misses;
    dst.evictions += c.evictions;
  }
}

StageStats EngineStats::rollup(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  StageStats out;
  for (const auto& [n, s] : stages_) {
    const std::size_t p = tilePrefixLen(n);
    if (n == name || (p > 0 && n.compare(p, std::string::npos, name) == 0)) {
      out.calls += s.calls;
      out.items += s.items;
      out.seconds += s.seconds;
    }
  }
  return out;
}

CacheStats EngineStats::cacheRollup(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  CacheStats out;
  for (const auto& [n, c] : caches_) {
    const std::size_t p = tilePrefixLen(n);
    if (n == name || (p > 0 && n.compare(p, std::string::npos, name) == 0)) {
      out.hits += c.hits;
      out.misses += c.misses;
      out.evictions += c.evictions;
    }
  }
  return out;
}

std::vector<std::pair<std::string, StageStats>> EngineStats::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stages_;
}

std::vector<std::pair<std::string, CacheStats>> EngineStats::cacheSnapshot()
    const {
  const std::lock_guard<std::mutex> lock(mu_);
  return caches_;
}

StageStats EngineStats::stage(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = stageIndex_.find(name);
  return it == stageIndex_.end() ? StageStats{} : stages_[it->second].second;
}

CacheStats EngineStats::cache(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = cacheIndex_.find(name);
  return it == cacheIndex_.end() ? CacheStats{} : caches_[it->second].second;
}

std::string EngineStats::toJson() const {
  obs::JsonWriter w;
  w.beginObject();
  writeJson(w);
  w.endObject();
  return w.str();
}

void EngineStats::writeJson(obs::JsonWriter& w) const {
  const auto stage = [&w](const std::string& name, const StageStats& s) {
    w.key(name).beginObject().field("calls", s.calls);
    w.field("items", s.items).field("seconds", s.seconds).endObject();
  };
  const auto cache = [&w](const std::string& name, const CacheStats& c) {
    w.key("cache/" + name).beginObject().field("hits", c.hits);
    w.field("misses", c.misses).field("evictions", c.evictions).endObject();
  };
  // One critical section for both registries: stage and cache counters in
  // a single dump are a consistent cut, not two snapshots a concurrent
  // recorder could land between.
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, s] : stages_) stage(name, s);
  for (const auto& [name, c] : caches_) cache(name, c);
  // Tiled-run roll-ups: per-tile counters summed under the plain stage
  // name, keyed in first-appearance order of the suffix (deterministic
  // because the tiled evaluator declares tile stages up front, in tile
  // order). Absent entirely for monolithic runs.
  std::vector<std::pair<std::string, StageStats>> agg;
  std::unordered_map<std::string, std::size_t> aggIndex;
  for (const auto& [name, s] : stages_) {
    const std::size_t p = tilePrefixLen(name);
    if (p == 0) continue;
    StageStats& dst = agg[slotOf(agg, aggIndex, name.substr(p))].second;
    dst.calls += s.calls;
    dst.items += s.items;
    dst.seconds += s.seconds;
  }
  // Fold in same-named plain entries so each aggregate matches
  // rollup(name) even when a run mixed tiled and monolithic recording.
  for (const auto& [name, s] : stages_) {
    const auto it = aggIndex.find(name);
    if (tilePrefixLen(name) != 0 || it == aggIndex.end()) continue;
    StageStats& dst = agg[it->second].second;
    dst.calls += s.calls;
    dst.items += s.items;
    dst.seconds += s.seconds;
  }
  for (const auto& [name, s] : agg) stage(name, s);
  std::vector<std::pair<std::string, CacheStats>> cagg;
  std::unordered_map<std::string, std::size_t> caggIndex;
  for (const auto& [name, c] : caches_) {
    const std::size_t p = tilePrefixLen(name);
    if (p == 0) continue;
    CacheStats& dst = cagg[slotOf(cagg, caggIndex, name.substr(p))].second;
    dst.hits += c.hits;
    dst.misses += c.misses;
    dst.evictions += c.evictions;
  }
  for (const auto& [name, c] : caches_) {
    const auto it = caggIndex.find(name);
    if (tilePrefixLen(name) != 0 || it == caggIndex.end()) continue;
    CacheStats& dst = cagg[it->second].second;
    dst.hits += c.hits;
    dst.misses += c.misses;
    dst.evictions += c.evictions;
  }
  for (const auto& [name, c] : cagg) cache(name, c);
}

void EngineStats::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  stages_.clear();
  stageIndex_.clear();
  caches_.clear();
  cacheIndex_.clear();
}

}  // namespace hsd::engine
