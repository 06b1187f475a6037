#include "obs/drift.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"
#include "text/text_cursor.hpp"

namespace hsd::obs {

namespace {

constexpr std::size_t kNone = std::size_t(-1);

/// PSI between baseline counts `p` and live window counts `q` with
/// Laplace smoothing: every bucket gets `alpha` pseudo-observations, so
/// proportions are strictly positive and the logs are finite.
double psiOf(const MarginSketch::Counts& p, const MarginSketch::Counts& q,
             double alpha) {
  const double pn =
      double(MarginSketch::total(p)) + alpha * double(MarginSketch::kNumBuckets);
  const double qn =
      double(MarginSketch::total(q)) + alpha * double(MarginSketch::kNumBuckets);
  if (pn <= 0.0 || qn <= 0.0) return 0.0;
  double psi = 0.0;
  for (std::size_t b = 0; b < MarginSketch::kNumBuckets; ++b) {
    const double pi = (double(p[b]) + alpha) / pn;
    const double qi = (double(q[b]) + alpha) / qn;
    psi += (qi - pi) * std::log(qi / pi);
  }
  return psi;
}

}  // namespace

void ModelBaseline::save(std::ostream& os) const {
  os << "baseline " << clusters.size() << ' ' << MarginSketch::kNumBuckets
     << '\n';
  for (const Cluster& c : clusters) {
    os << c.name << '\n';
    os << c.hot << ' ' << c.cold;
    for (const std::uint64_t v : c.buckets) os << ' ' << v;
    os << '\n';
  }
}

ModelBaseline ModelBaseline::load(text::TextCursor& in) {
  // A cluster is a name line plus a counts line of 2 + kNumBuckets
  // tokens; only the tokens count toward the size check.
  const std::size_t n = in.count(2 + MarginSketch::kNumBuckets);
  if (in.integer<std::size_t>() != MarginSketch::kNumBuckets)
    in.fail("baseline bucket count is not " +
            std::to_string(MarginSketch::kNumBuckets));
  in.restOfLine();
  ModelBaseline out;
  out.clusters.resize(n);
  for (Cluster& c : out.clusters) {
    c.name = in.restOfLine();
    c.hot = in.integer<std::uint64_t>();
    c.cold = in.integer<std::uint64_t>();
    for (std::uint64_t& v : c.buckets) v = in.integer<std::uint64_t>();
    in.restOfLine();
  }
  return out;
}

DriftScorer::DriftScorer(ModelBaseline baseline, DriftConfig cfg)
    : baseline_(std::move(baseline)),
      cfg_(cfg),
      ring_(cfg.windowSeconds, cfg.maxSamples) {}

void DriftScorer::setSource(std::shared_ptr<const ModelStatsRecorder> source) {
  const std::lock_guard<std::mutex> lock(mu_);
  source_ = std::move(source);
  ring_.clear();
  baselineOf_.clear();
  if (!source_) return;
  const std::vector<std::string>& names = source_->clusterNames();
  baselineOf_.assign(names.size(), kNone);
  // Slot order is the canonical alignment: the baseline is persisted in
  // kernel order and recorders are built from Detector::clusterNames() in
  // the same order. Topology keys can repeat across kernels (clusters are
  // per-kernel, not per-key), so a name search alone would map every
  // duplicate onto the first key match; positional match wins, with name
  // search only as the fallback for reshaped recorders.
  for (std::size_t s = 0; s < names.size(); ++s) {
    if (s < baseline_.clusters.size() && baseline_.clusters[s].name == names[s]) {
      baselineOf_[s] = s;
      continue;
    }
    for (std::size_t b = 0; b < baseline_.clusters.size(); ++b)
      if (baseline_.clusters[b].name == names[s]) {
        baselineOf_[s] = b;
        break;
      }
  }
}

void DriftScorer::sample(Clock::time_point now) {
  std::shared_ptr<const ModelStatsRecorder> src;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    src = source_;
  }
  if (src) ring_.push(now, src->bucketCounts());
}

DriftScorer::Status DriftScorer::status(Clock::time_point now) const {
  std::shared_ptr<const ModelStatsRecorder> src;
  std::vector<std::size_t> baselineOf;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    src = source_;
    baselineOf = baselineOf_;
  }
  Status st;
  if (!src) return st;
  const Cumulative cur = src->bucketCounts();
  // With no sample windowSeconds old the zero origin (no counts) serves:
  // the window covers everything since scoring started.
  const SampleRing<Cumulative>::Sample origin =
      ring_.origin(now, cfg_.windowSeconds);
  const Cumulative& base = origin.value;
  const double coveredSeconds = std::min(
      cfg_.windowSeconds, double(ring_.sinceEpochNs(now) - origin.tNs) / 1e9);
  const std::vector<std::string>& names = src->clusterNames();
  st.clusters.resize(names.size());
  for (std::size_t s = 0; s < names.size(); ++s) {
    ClusterStatus& cs = st.clusters[s];
    cs.name = names[s];
    cs.coveredSeconds = coveredSeconds;
    MarginSketch::Counts window = cur[s];
    if (s < base.size())
      for (std::size_t b = 0; b < MarginSketch::kNumBuckets; ++b)
        window[b] -= base[s][b];
    cs.windowCount = MarginSketch::total(window);
    const std::size_t bi = s < baselineOf.size() ? baselineOf[s] : kNone;
    if (bi == kNone) continue;  // unscored: no baseline for this slot
    cs.psi = psiOf(baseline_.clusters[bi].buckets, window, cfg_.smoothing);
    cs.scored = cs.windowCount >= cfg_.minWindowCount;
    cs.drifted = cs.scored && cs.psi > cfg_.psiThreshold;
    st.anyDrifted = st.anyDrifted || cs.drifted;
  }
  return st;
}

std::string DriftScorer::toJson(const Status& st) const {
  JsonWriter w;
  w.beginObject().field("psiThreshold", cfg_.psiThreshold);
  w.field("windowSeconds", cfg_.windowSeconds);
  w.field("minWindowCount", cfg_.minWindowCount);
  w.field("drifted", st.anyDrifted).key("clusters").beginArray();
  for (const ClusterStatus& c : st.clusters) {
    w.beginObject().field("cluster", c.name);
    w.field("windowCount", c.windowCount);
    w.field("coveredSeconds", c.coveredSeconds).field("psi", c.psi);
    w.field("scored", c.scored).field("drifted", c.drifted).endObject();
  }
  w.endArray().endObject();
  return w.str();
}

}  // namespace hsd::obs
