#include "obs/model_stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/json.hpp"

namespace hsd::obs {

namespace {

/// Magnitude bucket in [0, kBucketsPerSide): 0 covers [kStart, kStart*2),
/// the last bucket absorbs everything larger.
std::size_t magnitudeBucket(double mag) {
  // Exact threshold walk instead of log2(): bucketOf must be a pure,
  // platform-stable function of the value (quantile determinism rests on
  // it), and 24 compares are nothing next to an SVM decision.
  double bound = MarginSketch::kStart * MarginSketch::kFactor;
  for (std::size_t i = 0; i + 1 < MarginSketch::kBucketsPerSide; ++i) {
    if (mag < bound) return i;
    bound *= MarginSketch::kFactor;
  }
  return MarginSketch::kBucketsPerSide - 1;
}

}  // namespace

std::size_t MarginSketch::bucketOf(double margin) {
  if (std::isnan(margin)) return kBucketsPerSide;
  const double mag = std::fabs(margin);
  if (mag < kStart) return kBucketsPerSide;
  const std::size_t m = magnitudeBucket(mag);
  // Negative side counts down from the center, so bucket order follows
  // value order: index 0 is the most negative bucket.
  return margin < 0 ? kBucketsPerSide - 1 - m : kBucketsPerSide + 1 + m;
}

double MarginSketch::lowerBound(std::size_t bucket) {
  if (bucket == 0) return -std::numeric_limits<double>::infinity();
  if (bucket < kBucketsPerSide) {
    // Negative bucket b holds (-kStart*f^(m+1), -kStart*f^m] with
    // m = kBucketsPerSide - 1 - b; its lower bound is the open end.
    const std::size_t m = kBucketsPerSide - 1 - bucket;
    return -kStart * std::pow(kFactor, double(m + 1));
  }
  if (bucket == kBucketsPerSide) return -kStart;
  const std::size_t m = bucket - kBucketsPerSide - 1;
  return kStart * std::pow(kFactor, double(m));
}

double MarginSketch::upperBound(std::size_t bucket) {
  if (bucket + 1 >= kNumBuckets) return std::numeric_limits<double>::infinity();
  return lowerBound(bucket + 1);
}

std::uint64_t MarginSketch::total(const Counts& c) {
  std::uint64_t n = 0;
  for (const std::uint64_t v : c) n += v;
  return n;
}

double MarginSketch::quantile(const Counts& c, double q) {
  const std::uint64_t n = total(c);
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * double(n);
  double seen = 0.0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (c[b] == 0) continue;
    const double next = seen + double(c[b]);
    if (next >= rank) {
      // Interpolate inside the bucket; open-ended outer buckets clamp to
      // their finite bound, mirroring Histogram::quantile's +Inf clamp.
      double lo = lowerBound(b);
      double hi = upperBound(b);
      if (!std::isfinite(lo)) lo = hi;
      if (!std::isfinite(hi)) hi = lo;
      const double frac =
          std::min(1.0, std::max(0.0, (rank - seen) / double(c[b])));
      return lo + (hi - lo) * frac;
    }
    seen = next;
  }
  return 0.0;
}

ModelStatsRecorder::ModelStatsRecorder(std::vector<std::string> clusterNames,
                                       Options opts)
    : names_([&clusterNames] {
        for (std::size_t i = 0; i < clusterNames.size(); ++i)
          if (clusterNames[i].empty())
            clusterNames[i] = "k" + std::to_string(i);
        clusterNames.push_back(kFeedbackCluster);
        return std::move(clusterNames);
      }()),
      opts_(opts),
      core_(opts.captureCapacity, [this] {
        return Counts(names_.size() * (MarginSketch::kNumBuckets + 2));
      }) {}

void ModelStatsRecorder::bindMetrics(MetricsRegistry& registry) {
  metricCounters_.resize(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    metricCounters_[i].first =
        &registry.counter("hsd_model_verdicts_total",
                          "SVM verdicts by topology cluster and outcome",
                          {{"cluster", names_[i]}, {"verdict", "hot"}});
    metricCounters_[i].second =
        &registry.counter("hsd_model_verdicts_total",
                          "SVM verdicts by topology cluster and outcome",
                          {{"cluster", names_[i]}, {"verdict", "cold"}});
  }
}

void ModelStatsRecorder::record(std::size_t slot, double margin, bool hot) {
  if (slot >= names_.size()) {
    droppedRecords_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Counts& counts = core_.local().extra;
  const std::size_t bucket = MarginSketch::bucketOf(margin);
  counts[bucketBase(slot) + bucket].fetch_add(1, std::memory_order_relaxed);
  counts[verdictBase(slot) + (hot ? 0 : 1)].fetch_add(
      1, std::memory_order_relaxed);
  if (slot < metricCounters_.size()) {
    Counter* const c =
        hot ? metricCounters_[slot].first : metricCounters_[slot].second;
    if (c != nullptr) c->inc();
  }
}

bool ModelStatsRecorder::shouldCapture(double distanceToBoundary) const {
  return opts_.captureWidth > 0.0 &&
         std::fabs(distanceToBoundary) < opts_.captureWidth;
}

void ModelStatsRecorder::capture(std::size_t slot, double margin,
                                 std::int64_t anchorX, std::int64_t anchorY,
                                 std::uint64_t contentHash) {
  if (slot >= names_.size()) {
    droppedRecords_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Capture c;
  c.anchorX = anchorX;
  c.anchorY = anchorY;
  c.contentHash = contentHash;
  c.tsNs = core_.nowNs();
  c.trace = currentTraceId();
  c.margin = margin;
  c.cluster = std::uint32_t(slot);
  core_.push(c);
}

ModelStatsRecorder::Snapshot ModelStatsRecorder::snapshot() const {
  Snapshot out;
  out.clusters.resize(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i)
    out.clusters[i].name = names_[i];
  out.droppedRecords = droppedRecords_.load(std::memory_order_relaxed);
  core_.forEach([&](std::uint32_t, const auto& st) {
    for (std::size_t s = 0; s < names_.size(); ++s) {
      ClusterCounts& cc = out.clusters[s];
      for (std::size_t b = 0; b < MarginSketch::kNumBuckets; ++b)
        cc.buckets[b] +=
            st.extra[bucketBase(s) + b].load(std::memory_order_relaxed);
      cc.hot += st.extra[verdictBase(s)].load(std::memory_order_relaxed);
      cc.cold += st.extra[verdictBase(s) + 1].load(std::memory_order_relaxed);
    }
  });
  for (const auto& tc : core_.snapshot(&out.droppedCaptures))
    out.captures.push_back(tc.record);
  out.capturedTotal = out.captures.size() + out.droppedCaptures;
  return out;
}

std::vector<MarginSketch::Counts> ModelStatsRecorder::bucketCounts() const {
  std::vector<MarginSketch::Counts> out(names_.size());
  core_.forEach([&](std::uint32_t, const auto& st) {
    for (std::size_t s = 0; s < names_.size(); ++s)
      for (std::size_t b = 0; b < MarginSketch::kNumBuckets; ++b)
        out[s][b] +=
            st.extra[bucketBase(s) + b].load(std::memory_order_relaxed);
  });
  return out;
}

std::string ModelStatsRecorder::toJson(std::size_t captureLimit,
                                       std::string_view clusterFilter) const {
  Snapshot snap = snapshot();
  std::size_t slot = names_.size();
  if (!clusterFilter.empty()) {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == clusterFilter) slot = i;
    std::vector<ClusterCounts> kept;
    if (slot < snap.clusters.size()) kept.push_back(snap.clusters[slot]);
    snap.clusters = std::move(kept);
  }
  keepNewest(
      snap.captures, captureLimit,
      [&](const Capture& c) {
        return clusterFilter.empty() || c.cluster == slot;
      },
      [](const Capture& c) { return c.tsNs; });
  JsonWriter w;
  w.beginObject();
  if (opts_.modelFingerprint != 0)
    w.field("fingerprint", hex64(opts_.modelFingerprint));
  w.key("clusters").beginArray();
  for (const ClusterCounts& cc : snap.clusters) {
    w.beginObject().field("cluster", cc.name).field("hot", cc.hot);
    w.field("cold", cc.cold).field("count", cc.count());
    w.field("p50", MarginSketch::quantile(cc.buckets, 0.5));
    w.field("p90", MarginSketch::quantile(cc.buckets, 0.9));
    w.field("p99", MarginSketch::quantile(cc.buckets, 0.99)).endObject();
  }
  w.endArray().field("capturedTotal", snap.capturedTotal);
  w.field("droppedCaptures", snap.droppedCaptures);
  w.field("droppedRecords", snap.droppedRecords);
  w.field("captureWidth", opts_.captureWidth).key("captures").beginArray();
  for (const Capture& c : snap.captures) {
    w.beginObject().field("cluster", c.cluster < names_.size()
                                         ? std::string_view(names_[c.cluster])
                                         : std::string_view("?"));
    w.field("x", c.anchorX).field("y", c.anchorY);
    w.field("contentHash", hex64(c.contentHash)).field("margin", c.margin);
    w.field("tsNs", c.tsNs);
    if (c.trace.valid()) w.field("trace", formatTraceId(c.trace));
    w.endObject();
  }
  w.endArray().endObject();
  return w.str();
}

}  // namespace hsd::obs
