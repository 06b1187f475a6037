#include "obs/slo.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace hsd::obs {

namespace {

double burnRate(double attainment, double target) {
  if (target >= 1.0) return attainment >= 1.0 ? 0.0 : 1e9;  // degenerate
  return (1.0 - attainment) / (1.0 - target);
}

SloConfig normalized(SloConfig cfg) {
  if (cfg.windowsSeconds.empty()) cfg.windowsSeconds = {60.0};
  std::sort(cfg.windowsSeconds.begin(), cfg.windowsSeconds.end());
  if (cfg.maxSamples == 0) cfg.maxSamples = 1;
  return cfg;
}

}  // namespace

SloTracker::SloTracker(SloConfig cfg)
    : cfg_(normalized(std::move(cfg))),
      ring_(cfg_.windowsSeconds.back(), cfg_.maxSamples) {}

void SloTracker::setAvailabilitySource(CountFn good, CountFn total) {
  good_ = std::move(good);
  total_ = std::move(total);
}

void SloTracker::setLatencySource(const Histogram* hist) {
  hist_ = hist;
  hasObjectiveBucket_ = false;
  objectiveBound_ = 0.0;
  if (hist_ == nullptr) return;
  const std::vector<double>& bounds = hist_->bounds();
  // Snap the objective down to a bucket bound: cumulative counts are only
  // exact there. No bound at or below the objective means the latency SLO
  // cannot be measured against this histogram — report attainment 1.
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (bounds[i] <= cfg_.latencyObjectiveSeconds) {
      objectiveBucket_ = i;
      objectiveBound_ = bounds[i];
      hasObjectiveBucket_ = true;
    } else {
      break;
    }
  }
}

SloTracker::Counts SloTracker::read() const {
  Counts s;
  if (good_) s.good = good_();
  if (total_) s.total = total_();
  if (hist_ != nullptr && hasObjectiveBucket_) {
    const std::vector<std::uint64_t> counts = hist_->bucketCounts();
    std::uint64_t fast = 0;
    std::uint64_t all = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      all += counts[i];
      if (i <= objectiveBucket_) fast += counts[i];
    }
    s.latencyFast = fast;
    s.latencyTotal = all;
  }
  return s;
}

void SloTracker::sample(Clock::time_point now) { ring_.push(now, read()); }

SloTracker::Status SloTracker::status(Clock::time_point now) const {
  const Counts cur = read();
  const std::int64_t nowNs = ring_.sinceEpochNs(now);
  Status st;
  st.windows.reserve(cfg_.windowsSeconds.size());
  for (const double w : cfg_.windowsSeconds) {
    Window win;
    win.seconds = w;
    // With no sample `w` old (early life / sparse scrapes) the zero
    // origin serves: the window covers everything since process start.
    const SampleRing<Counts>::Sample origin = ring_.origin(now, w);
    const Counts& base = origin.value;
    win.coveredSeconds = std::min(w, double(nowNs - origin.tNs) / 1e9);
    win.total = cur.total - base.total;
    win.good = cur.good - base.good;
    win.availability =
        win.total == 0 ? 1.0 : double(win.good) / double(win.total);
    win.availabilityBurn =
        win.total == 0 ? 0.0
                       : burnRate(win.availability, cfg_.availabilityTarget);
    win.latencyTotal = cur.latencyTotal - base.latencyTotal;
    win.latencyFast = cur.latencyFast - base.latencyFast;
    win.latencyAttainment =
        win.latencyTotal == 0
            ? 1.0
            : double(win.latencyFast) / double(win.latencyTotal);
    win.latencyBurn = win.latencyTotal == 0
                          ? 0.0
                          : burnRate(win.latencyAttainment, cfg_.latencyTarget);
    win.burning = (win.total > 0 &&
                   win.availabilityBurn > kDegradedBurnRate) ||
                  (win.latencyTotal > 0 &&
                   win.latencyBurn > kDegradedBurnRate);
    st.degraded = st.degraded || win.burning;
    st.windows.push_back(win);
  }
  return st;
}

std::string SloTracker::toJson(const Status& st) const {
  JsonWriter w;
  w.beginObject().field("availabilityTarget", cfg_.availabilityTarget);
  w.field("latencyObjectiveSeconds", cfg_.latencyObjectiveSeconds);
  w.field("effectiveLatencyObjectiveSeconds", objectiveBound_);
  w.field("latencyTarget", cfg_.latencyTarget);
  w.field("degradedBurnRate", kDegradedBurnRate);
  w.field("degraded", st.degraded).key("windows").beginArray();
  for (const Window& win : st.windows) {
    w.beginObject().field("seconds", win.seconds);
    w.field("coveredSeconds", win.coveredSeconds).field("total", win.total);
    w.field("good", win.good).field("availability", win.availability);
    w.field("availabilityBurn", win.availabilityBurn);
    w.field("latencyTotal", win.latencyTotal);
    w.field("latencyFast", win.latencyFast);
    w.field("latencyAttainment", win.latencyAttainment);
    w.field("latencyBurn", win.latencyBurn);
    w.field("burning", win.burning).endObject();
  }
  w.endArray().endObject();
  return w.str();
}

}  // namespace hsd::obs
