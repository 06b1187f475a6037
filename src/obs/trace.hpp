// Span tracing: a TraceRecorder collects begin/end span events into
// per-thread ring buffers and serializes them to Chrome trace-event JSON
// ("X" complete events), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Design goals, in order:
//
//  1. Near-zero overhead when disabled. Instrumentation sites hold a
//     TraceRecorder* that is nullptr when tracing is off; a disabled
//     obs::Span is one branch — no clock read, no allocation, no copy
//     (pinned by the operator-new-counting test in tests/test_obs.cpp
//     and the BM_SpanDisabled micro-bench).
//  2. Lock-free recording when enabled. Each thread appends to its own
//     fixed-capacity obs::ThreadRing (single writer, no CAS loop); a
//     mutex is taken only once per (thread, recorder) pair to register
//     the ring. A full ring drops the *oldest* events — newest data wins
//     — and counts the drops (droppedEvents(), also surfaced in the JSON).
//  3. Bounded memory. perThreadCapacity events per thread, period.
//
// Live snapshots: snapshot()/writeJson() may run while threads record.
// They are race-free and every event they return is whole; an event
// overwritten while being copied counts as dropped, and spans recorded
// after the copy passed their ring are simply not in it. The recorder
// must outlive every thread that records into it — the same lifetime
// rule as StageCache vs. RunContext.
//
// Event names are truncated to kNameCapacity-1 bytes (no allocation per
// span); categories, arg keys, and string arg values must be string
// literals (static storage) — the ring stores the pointers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/thread_ring.hpp"
#include "obs/trace_id.hpp"

namespace hsd::obs {

/// One optional numeric span argument (key must be a string literal).
struct TraceArg {
  const char* key = nullptr;
  std::uint64_t value = 0;
};

/// One optional string span argument (key AND value must be literals).
struct TraceStrArg {
  const char* key = nullptr;
  const char* value = nullptr;
};

class TraceRecorder {
 public:
  static constexpr std::size_t kNameCapacity = 48;
  static constexpr std::size_t kDefaultCapacity = 1 << 15;  ///< per thread

  /// A recorded span, fixed-size so ring slots never allocate.
  struct Event {
    char name[kNameCapacity];
    const char* cat;       ///< category (string literal)
    std::int64_t tsNs;     ///< span begin, ns since recorder construction
    std::int64_t durNs;    ///< span duration in ns
    TraceArg a0, a1;       ///< numeric args (key == nullptr -> absent)
    TraceStrArg s0;        ///< string arg (key == nullptr -> absent)
    TraceId trace;         ///< request correlation ({0,0} = uncorrelated)
  };

  /// A serialization-ready view of one event plus its thread attribution.
  struct SnapshotEvent {
    Event event;
    std::uint32_t tid = 0;    ///< dense per-recorder thread id
  };

  /// `perThreadCapacity` == 0 is clamped to 1.
  explicit TraceRecorder(std::size_t perThreadCapacity = kDefaultCapacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Record one completed span [t0, t1). Name is truncated to fit a ring
  /// slot; cat/arg keys/string values must be literals. Lock-free after
  /// the calling thread's first event. An invalid `trace` (the default)
  /// is replaced by the calling thread's currentTraceId(), so spans
  /// recorded under a ScopedTraceId are correlated automatically.
  void recordSpan(std::string_view name, const char* cat,
                  std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1,
                  TraceArg a0 = {}, TraceArg a1 = {}, TraceStrArg s0 = {},
                  TraceId trace = {});

  /// Name the calling thread in the trace (Perfetto track label). Last
  /// call wins. Takes a mutex — call once per thread, not per span.
  void nameThread(const std::string& name);

  /// Total events overwritten because a ring was full (drop-oldest).
  std::uint64_t droppedEvents() const { return core_.dropped(); }

  /// Events currently resident across all rings (drops excluded).
  std::size_t spanCount() const { return core_.size(); }

  /// Resident events in (tid, record order), oldest first per thread.
  /// `dropped`, when given, receives the events recorded before this cut
  /// that it does not return (ring wrap, including mid-copy overwrites).
  std::vector<SnapshotEvent> snapshot(std::uint64_t* dropped = nullptr) const {
    return core_.snapshot<SnapshotEvent>(dropped);
  }

  /// Names of registered threads, indexed by tid ("" when never named).
  std::vector<std::string> threadNames() const;

  /// Chrome trace-event JSON: thread_name metadata events followed by one
  /// "X" event per span; "droppedEvents" is included as a top-level key.
  void writeJson(std::ostream& os) const;
  std::string toJson() const;

 private:
  /// Per-thread rings; each thread's Extra is its name (namesMu_).
  RecorderCore<Event, std::string> core_;
  mutable std::mutex namesMu_;  ///< guards every thread's name
};

/// RAII span guard. With a null recorder this is a stored nullptr and
/// nothing else — no clock read, no name copy, no allocation; arg() is a
/// no-op. With a recorder, the span covers construction to destruction.
class Span {
 public:
  Span(TraceRecorder* rec, std::string_view name, const char* cat)
      : rec_(rec) {
    if (rec_ == nullptr) return;
    len_ = std::min(name.size(), TraceRecorder::kNameCapacity - 1);
    std::memcpy(name_, name.data(), len_);
    cat_ = cat;
    t0_ = std::chrono::steady_clock::now();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a numeric arg (first two calls stick; keys must be literals).
  void arg(const char* key, std::uint64_t value) {
    if (rec_ == nullptr) return;
    if (a0_.key == nullptr) {
      a0_ = {key, value};
    } else if (a1_.key == nullptr) {
      a1_ = {key, value};
    }
  }

  /// Attach the string arg (first call sticks; key and value literals).
  void strArg(const char* key, const char* value) {
    if (rec_ == nullptr || s0_.key != nullptr) return;
    s0_ = {key, value};
  }

  ~Span() {
    if (rec_ == nullptr) return;
    rec_->recordSpan(std::string_view(name_, len_), cat_, t0_,
                     std::chrono::steady_clock::now(), a0_, a1_, s0_);
  }

 private:
  TraceRecorder* rec_;
  char name_[TraceRecorder::kNameCapacity];
  std::size_t len_ = 0;
  const char* cat_ = nullptr;
  std::chrono::steady_clock::time_point t0_;
  TraceArg a0_, a1_;
  TraceStrArg s0_;
};

}  // namespace hsd::obs
