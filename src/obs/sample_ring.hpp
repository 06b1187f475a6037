// SampleRing: the bounded, time-stamped sample history behind the
// scrape-driven windowed views (SloTracker, DriftScorer). Each scrape
// pushes one sample of cumulative counters; a window's delta is "now"
// minus its origin — the newest sample at least the window's width old,
// else the zero origin (the window degrades to "since the ring's epoch",
// the honest answer while history is shorter than the window).
//
// Pruning keeps exactly what origin lookups can still need: every sample
// younger than 1.25x the longest window plus one older one (the delta
// baseline), and never more than `maxSamples` (caps memory under scrape
// floods). Thread-safe: one mutex, held for a push or a single lookup
// (scrape-rate, not request-rate); lookups return a copy of one sample,
// never of the ring.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace hsd::obs {

template <typename Payload>
class SampleRing {
 public:
  using Clock = std::chrono::steady_clock;

  struct Sample {
    std::int64_t tNs = 0;  ///< since the ring's epoch
    Payload value{};
  };

  SampleRing(double longestWindowSeconds, std::size_t maxSamples)
      : epoch_(Clock::now()),
        keepNs_(longestWindowSeconds * 1e9 * 1.25),
        maxSamples_(maxSamples) {}

  SampleRing(const SampleRing&) = delete;
  SampleRing& operator=(const SampleRing&) = delete;

  /// `t` as nanoseconds since the ring's epoch (the zero origin's time).
  std::int64_t sinceEpochNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  void push(Clock::time_point now, Payload value) {
    Sample s{sinceEpochNs(now), std::move(value)};
    const std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(std::move(s));
    while (ring_.size() > 2 &&
           double(ring_.back().tNs - ring_[1].tNs) >= keepNs_)
      ring_.pop_front();
    while (ring_.size() > maxSamples_) ring_.pop_front();
  }

  /// The origin of the window `windowSeconds` wide ending at `now`: a
  /// copy of the newest sample at least that old (inclusive), else the
  /// zero origin {0, Payload{}}.
  Sample origin(Clock::time_point now, double windowSeconds) const {
    const std::int64_t nowNs = sinceEpochNs(now);
    const std::lock_guard<std::mutex> lock(mu_);
    const Sample* base = nullptr;
    for (const Sample& s : ring_) {
      if (double(nowNs - s.tNs) < windowSeconds * 1e9) break;  // time-ordered
      base = &s;
    }
    return base != nullptr ? *base : Sample{};
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
  }

 private:
  const Clock::time_point epoch_;
  const double keepNs_;
  const std::size_t maxSamples_;
  mutable std::mutex mu_;
  std::deque<Sample> ring_;
};

}  // namespace hsd::obs
