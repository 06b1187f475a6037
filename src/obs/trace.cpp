#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "obs/json.hpp"

namespace hsd::obs {

TraceRecorder::TraceRecorder(std::size_t perThreadCapacity)
    : core_(perThreadCapacity) {}

void TraceRecorder::recordSpan(std::string_view name, const char* cat,
                               std::chrono::steady_clock::time_point t0,
                               std::chrono::steady_clock::time_point t1,
                               TraceArg a0, TraceArg a1, TraceStrArg s0,
                               TraceId trace) {
  if (!trace.valid()) trace = currentTraceId();
  Event e{};  // zeroed: the NUL terminator and every byte the ring copies
  std::memcpy(e.name, name.data(), std::min(name.size(), kNameCapacity - 1));
  e.cat = cat;
  e.tsNs = core_.sinceEpochNs(t0);
  e.durNs = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
             .count());
  e.a0 = a0;
  e.a1 = a1;
  e.s0 = s0;
  e.trace = trace;
  core_.push(e);
}

void TraceRecorder::nameThread(const std::string& name) {
  std::string& slot = core_.local().extra;
  const std::lock_guard<std::mutex> lock(namesMu_);
  slot = name;
}

std::vector<std::string> TraceRecorder::threadNames() const {
  std::vector<std::string> names;
  const std::lock_guard<std::mutex> lock(namesMu_);
  core_.forEach([&](std::uint32_t, const auto& st) {
    names.push_back(st.extra);
  });
  return names;
}

void TraceRecorder::writeJson(std::ostream& os) const { os << toJson(); }

std::string TraceRecorder::toJson() const {
  std::uint64_t dropped = 0;
  const std::vector<SnapshotEvent> events = snapshot(&dropped);
  const std::vector<std::string> names = threadNames();
  // Chrome's ts/dur unit is the microsecond; print ns exactly as
  // "<us>.<3 digits>" instead of through a double.
  const auto micros = [](std::int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld.%03lld", (long long)(ns / 1000),
                  (long long)(ns % 1000));
    return std::string(buf);
  };
  JsonWriter w;
  w.beginObject().key("traceEvents").beginArray(true);
  for (std::size_t tid = 0; tid < names.size(); ++tid) {
    if (names[tid].empty()) continue;
    w.beginObject().field("ph", "M").field("pid", 1).field("tid", tid);
    w.field("name", "thread_name").key("args").beginObject();
    w.field("name", names[tid]).endObject().endObject();
  }
  for (const SnapshotEvent& se : events) {
    const Event& e = se.event;
    w.beginObject().field("ph", "X").field("pid", 1).field("tid", se.tid);
    w.field("name", e.name).field("cat", e.cat);
    w.key("ts").raw(micros(e.tsNs)).key("dur").raw(micros(e.durNs));
    if (e.a0.key != nullptr || e.s0.key != nullptr || e.trace.valid()) {
      w.key("args").beginObject();
      appendArgsJson(w, e.a0, e.a1, e.s0);
      if (e.trace.valid()) w.field("trace", formatTraceId(e.trace));
      w.endObject();
    }
    w.endObject();
  }
  w.endArray().field("displayTimeUnit", "ms").field("droppedEvents", dropped);
  w.endObject().raw("\n");
  return w.str();
}

}  // namespace hsd::obs
