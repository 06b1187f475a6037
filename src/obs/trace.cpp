#include "obs/trace.hpp"

#include <algorithm>
#include <locale>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace hsd::obs {

TraceRecorder::TraceRecorder(std::size_t perThreadCapacity)
    : capacity_(perThreadCapacity == 0 ? 1 : perThreadCapacity),
      epoch_(std::chrono::steady_clock::now()),
      threads_([this] { return std::make_unique<ThreadState>(capacity_); }) {}

void TraceRecorder::recordSpan(std::string_view name, const char* cat,
                               std::chrono::steady_clock::time_point t0,
                               std::chrono::steady_clock::time_point t1,
                               TraceArg a0, TraceArg a1, TraceStrArg s0,
                               TraceId trace) {
  if (!trace.valid()) trace = currentTraceId();
  Event e{};  // zeroed: the NUL terminator and every byte the ring copies
  std::memcpy(e.name, name.data(), std::min(name.size(), kNameCapacity - 1));
  e.cat = cat;
  // Clamp to the recorder's lifetime: a span whose begin predates the
  // recorder (e.g. a request submitted before tracing was attached) lands
  // at ts 0 instead of emitting a negative timestamp the writer can't
  // format.
  e.tsNs = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - epoch_)
             .count());
  e.durNs = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
             .count());
  e.a0 = a0;
  e.a1 = a1;
  e.s0 = s0;
  e.trace = trace;
  threads_.local().ring.push(e);
}

void TraceRecorder::nameThread(const std::string& name) {
  ThreadState& st = threads_.local();
  const std::lock_guard<std::mutex> lock(namesMu_);
  st.name = name;
}

std::uint64_t TraceRecorder::droppedEvents() const {
  return threads_.sum([](const ThreadState& st) { return st.ring.dropped(); });
}

std::size_t TraceRecorder::spanCount() const {
  return threads_.sum([](const ThreadState& st) { return st.ring.size(); });
}

std::vector<TraceRecorder::SnapshotEvent> TraceRecorder::snapshot(
    std::uint64_t* dropped) const {
  std::vector<SnapshotEvent> out;
  std::uint64_t lost = 0;
  threads_.forEach([&](std::uint32_t tid, const ThreadState& st) {
    lost += st.ring.read([&](const Event& e) { out.push_back({e, tid}); });
  });
  if (dropped != nullptr) *dropped = lost;
  return out;
}

std::vector<std::string> TraceRecorder::threadNames() const {
  std::vector<std::string> names;
  const std::lock_guard<std::mutex> lock(namesMu_);
  threads_.forEach([&](std::uint32_t, const ThreadState& st) {
    names.push_back(st.name);
  });
  return names;
}

void TraceRecorder::writeJson(std::ostream& os) const {
  std::uint64_t dropped = 0;
  const std::vector<SnapshotEvent> events = snapshot(&dropped);
  const std::vector<std::string> names = threadNames();
  // A grouping locale on the caller's stream would corrupt the numbers
  // ("1.234" for tid 1234); pin the classic locale, restore on exit.
  const std::locale saved = os.imbue(std::locale::classic());
  os << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t tid = 0; tid < names.size(); ++tid) {
    if (names[tid].empty()) continue;
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
       << jsonEscape(names[tid]) << "\"}}";
  }
  for (const SnapshotEvent& se : events) {
    if (!first) os << ",";
    first = false;
    const Event& e = se.event;
    os << "\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " << se.tid
       << ", \"name\": \"" << jsonEscape(e.name) << "\", \"cat\": \""
       << jsonEscape(e.cat) << "\", \"ts\": " << e.tsNs / 1000 << '.'
       << char('0' + e.tsNs / 100 % 10) << char('0' + e.tsNs / 10 % 10)
       << char('0' + e.tsNs % 10) << ", \"dur\": " << e.durNs / 1000 << '.'
       << char('0' + e.durNs / 100 % 10) << char('0' + e.durNs / 10 % 10)
       << char('0' + e.durNs % 10);
    if (e.a0.key != nullptr || e.s0.key != nullptr || e.trace.valid()) {
      os << ", \"args\": {";
      bool firstArg = true;
      appendArgsJson(os, e.a0, e.a1, e.s0, firstArg);
      if (e.trace.valid()) {
        if (!firstArg) os << ", ";
        char trace[kTraceIdChars + 1];
        formatTraceId(e.trace, trace);
        os << "\"trace\": \"" << trace << '"';
      }
      os << '}';
    }
    os << '}';
  }
  os << "\n], \"displayTimeUnit\": \"ms\", \"droppedEvents\": "
     << dropped << "}\n";
  os.imbue(saved);
}

std::string TraceRecorder::toJson() const {
  std::ostringstream os;
  writeJson(os);
  return os.str();
}

}  // namespace hsd::obs
