#include "obs/log.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <ostream>

#include "obs/json.hpp"

namespace hsd::obs {

const char* toString(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "unknown";
}

bool parseLogLevel(std::string_view name, LogLevel& out) {
  std::string lower(name);
  for (char& c : lower) c = char(std::tolower(static_cast<unsigned char>(c)));
  if (lower == "trace") {
    out = LogLevel::kTrace;
  } else if (lower == "debug") {
    out = LogLevel::kDebug;
  } else if (lower == "info") {
    out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    out = LogLevel::kWarn;
  } else if (lower == "error") {
    out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

LogRecorder::LogRecorder(std::size_t perThreadCapacity)
    : capacity_(perThreadCapacity == 0 ? 1 : perThreadCapacity),
      epoch_(std::chrono::steady_clock::now()),
      wallEpochNs_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count()),
      threads_([this] {
        return std::make_unique<ThreadRing<Record>>(capacity_);
      }) {}

void LogRecorder::log(LogLevel level, const char* component,
                      std::string_view message, TraceArg a0, TraceArg a1,
                      TraceStrArg s0, TraceId trace) {
  if (!enabled(level)) return;
  if (!trace.valid()) trace = currentTraceId();
  Record r{};  // zeroed: the NUL terminator and every byte the ring copies
  const std::size_t len = std::min(message.size(), kMessageCapacity - 1);
  std::memcpy(r.message, message.data(), len);
  r.msgLen = std::uint8_t(len);
  r.component = component;
  r.tsNs = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
             .count());
  r.trace = trace;
  r.a0 = a0;
  r.a1 = a1;
  r.s0 = s0;
  r.level = level;
  threads_.local().push(r);
}

std::uint64_t LogRecorder::droppedRecords() const {
  return threads_.sum([](const ThreadRing<Record>& r) { return r.dropped(); });
}

std::size_t LogRecorder::recordCount() const {
  return threads_.sum([](const ThreadRing<Record>& r) { return r.size(); });
}

std::vector<LogRecorder::SnapshotRecord> LogRecorder::snapshot(
    std::uint64_t* dropped) const {
  std::vector<SnapshotRecord> out;
  std::uint64_t lost = 0;
  threads_.forEach([&](std::uint32_t tid, const ThreadRing<Record>& ring) {
    lost += ring.read([&](const Record& r) { out.push_back({r, tid}); });
  });
  if (dropped != nullptr) *dropped = lost;
  return out;
}

void LogRecorder::appendRecordJson(JsonWriter& w,
                                   const SnapshotRecord& sr) const {
  const Record& r = sr.record;
  w.beginObject().field("tsNs", r.tsNs);
  w.field("unixMs", (wallEpochNs_ + r.tsNs) / 1000000);
  w.field("level", toString(r.level));
  w.field("component", r.component != nullptr ? r.component : "");
  w.field("tid", sr.tid);
  w.field("message", std::string_view(r.message,
                                      std::min<std::size_t>(
                                          r.msgLen, kMessageCapacity - 1)));
  if (r.trace.valid()) w.field("trace", formatTraceId(r.trace));
  appendArgsJson(w, r.a0, r.a1, r.s0);
  w.endObject();
}

void LogRecorder::writeJsonLines(std::ostream& os) const {
  std::vector<SnapshotRecord> records = snapshot();
  std::sort(records.begin(), records.end(),
            [](const SnapshotRecord& a, const SnapshotRecord& b) {
              return a.record.tsNs < b.record.tsNs;
            });
  JsonWriter w;
  for (const SnapshotRecord& sr : records) {
    appendRecordJson(w, sr);
    w.raw("\n");
  }
  os << w.str();
}

}  // namespace hsd::obs
