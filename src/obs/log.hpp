// Structured logging: a LogRecorder collects fixed-size, trace-correlated
// log records into per-thread ring buffers — the same design as
// TraceRecorder (obs/trace.hpp), applied to discrete events instead of
// spans. Design goals, in order:
//
//  1. Near-zero overhead when disabled. Sites hold a LogRecorder* that is
//     nullptr when logging is off; the logTo() helper is one branch. With
//     a recorder attached, records below the atomic min-level gate cost
//     one relaxed load.
//  2. Lock-free, allocation-free recording when enabled. Each thread
//     appends to its own fixed-capacity obs::ThreadRing (single writer,
//     never blocks); the message is copied into the slot (truncated to
//     kMessageCapacity-1), component/arg keys/string values must be
//     string literals. A full ring drops the *oldest* records and counts
//     the drops. Pinned by the operator-new-counter proof in
//     tests/test_obs_plane.cpp and the log-cost rows of BENCH_obs.json.
//  3. Request correlation for free: a record stamped while a
//     ScopedTraceId is installed carries that trace id, so
//     `/logz?trace=<id>` and `/tracez?trace=<id>` tell one request's
//     story from both sides.
//
// Serialization is JSON lines (one object per record — the --log-out file
// sink and the admin /logz body): steady-clock-relative tsNs for exact
// ordering plus a wall-clock unixMs anchor for humans.
//
// Live snapshots: snapshot()/writeJsonLines() may run while threads log.
// They are race-free and every record they return is whole; a record
// overwritten while being copied counts as dropped. The recorder must
// outlive every thread that logs into it — same rules as TraceRecorder.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/thread_ring.hpp"
#include "obs/trace.hpp"
#include "obs/trace_id.hpp"

namespace hsd::obs {

class JsonWriter;

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
};

/// Lower-case level name ("trace".."error"; "unknown" out of range).
const char* toString(LogLevel level);

/// Parse a level name (case-insensitive: "warn", "WARN", "warning").
/// Returns false on anything else, leaving `out` untouched.
bool parseLogLevel(std::string_view name, LogLevel& out);

class LogRecorder {
 public:
  static constexpr std::size_t kMessageCapacity = 88;
  static constexpr std::size_t kDefaultCapacity = 1 << 13;  ///< per thread

  /// One recorded log line, fixed-size so ring slots never allocate.
  struct Record {
    char message[kMessageCapacity];  ///< truncated copy, NUL-terminated
    const char* component;           ///< subsystem (string literal)
    std::int64_t tsNs;               ///< ns since recorder construction
    TraceId trace;                   ///< correlation ({0,0} = none)
    TraceArg a0, a1;                 ///< numeric args (key nullptr = absent)
    TraceStrArg s0;                  ///< string arg (key nullptr = absent)
    LogLevel level;
    /// Copied message length — serialization emits exactly this many
    /// bytes, so an embedded NUL in the message survives (escaped)
    /// instead of silently truncating the JSON string.
    std::uint8_t msgLen;
  };

  /// A serialization-ready view of one record plus thread attribution.
  struct SnapshotRecord {
    Record record;
    std::uint32_t tid = 0;  ///< dense per-recorder thread id
  };

  /// `perThreadCapacity` == 0 is clamped to 1.
  explicit LogRecorder(std::size_t perThreadCapacity = kDefaultCapacity);

  LogRecorder(const LogRecorder&) = delete;
  LogRecorder& operator=(const LogRecorder&) = delete;

  /// Records below this level are dropped at the call site (one relaxed
  /// load). Settable at any time from any thread.
  void setMinLevel(LogLevel level) {
    minLevel_.store(int(level), std::memory_order_relaxed);
  }
  LogLevel minLevel() const {
    return LogLevel(minLevel_.load(std::memory_order_relaxed));
  }
  bool enabled(LogLevel level) const { return int(level) >= int(minLevel()); }

  /// Record one log line. `component`, arg keys, and the string arg value
  /// must be literals; `message` is copied (truncated) into the ring
  /// slot. An invalid `trace` is replaced by currentTraceId(). Lock-free
  /// and allocation-free after the calling thread's first record.
  void log(LogLevel level, const char* component, std::string_view message,
           TraceArg a0 = {}, TraceArg a1 = {}, TraceStrArg s0 = {},
           TraceId trace = {});

  /// Total records overwritten because a ring was full (drop-oldest).
  std::uint64_t droppedRecords() const;

  /// Records currently resident across all rings (drops excluded).
  std::size_t recordCount() const;

  std::size_t perThreadCapacity() const { return capacity_; }

  /// Resident records in (tid, record order), oldest first per thread.
  /// `dropped`, when given, receives the records logged before this cut
  /// that it does not return (ring wrap, including mid-copy overwrites).
  std::vector<SnapshotRecord> snapshot(std::uint64_t* dropped = nullptr) const;

  /// Wall-clock ns at recorder construction; unixNs of a record is
  /// wallEpochNs() + record.tsNs (steady and wall clocks drift, but over
  /// a process lifetime the anchor is plenty for log reading).
  std::int64_t wallEpochNs() const { return wallEpochNs_; }

  /// Appends one JSON object (no trailing newline) for a snapshot record —
  /// {"tsNs":..,"unixMs":..,"level":"..","component":"..","tid":N,
  ///  "message":"..","trace":"..hex..", <args...>}. Shared by the /logz
  /// handler and the file sink.
  void appendRecordJson(JsonWriter& w, const SnapshotRecord& sr) const;

  /// JSON-lines dump of the whole snapshot, sorted by tsNs (the
  /// hsd_serve/hsd_detect --log-out format); ends with a newline.
  void writeJsonLines(std::ostream& os) const;

 private:
  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  const std::int64_t wallEpochNs_;
  std::atomic<int> minLevel_{int(LogLevel::kInfo)};
  ThreadRegistry<ThreadRing<Record>> threads_;
};

/// One-branch-when-off convenience: every call site in engine/serve holds
/// a LogRecorder* that is nullptr when logging is disabled.
inline void logTo(LogRecorder* rec, LogLevel level, const char* component,
                  std::string_view message, TraceArg a0 = {}, TraceArg a1 = {},
                  TraceStrArg s0 = {}) {
  if (rec != nullptr && rec->enabled(level))
    rec->log(level, component, message, a0, a1, s0);
}

}  // namespace hsd::obs
