#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> nextSpanId{1};
/// Innermost open scope on this thread (0 = none): the parent of the
/// next scope it opens.
thread_local std::uint64_t openSpan = 0;

}  // namespace

SpanLog::SpanLog(bool enabled) {
  // A thread records at most a few hundred spans per run; dropped() tells
  // the run if a ring ever wraps, since self times need every span.
  if (enabled) recorder_ = std::make_shared<hsd::obs::TraceRecorder>(1 << 12);
}

SpanLog::Scope::Scope(SpanLog& log, std::string_view name, const char* layer)
    : rec_(log.recorder_.get()) {
  if (rec_ == nullptr) return;
  name_ = name;
  layer_ = layer;
  id_ = nextSpanId.fetch_add(1, std::memory_order_relaxed);
  parent_ = openSpan;
  openSpan = id_;
  t0_ = std::chrono::steady_clock::now();
}

SpanLog::Scope::~Scope() {
  if (rec_ == nullptr) return;
  rec_->recordSpan(name_, layer_, t0_, std::chrono::steady_clock::now(),
                   {"id", id_}, {"parent", parent_});
  openSpan = parent_;
}

std::map<std::string, std::vector<SpanLog::SpanTime>> SpanLog::times() const {
  std::map<std::string, std::vector<SpanTime>> out;
  if (!recorder_) return out;
  const std::vector<hsd::obs::TraceRecorder::SnapshotEvent> events =
      recorder_->snapshot();
  // Children of each span, as [begin, end) intervals in ns.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const auto& se : events) {
    const auto& e = se.event;
    if (e.a1.value != 0)
      children[e.a1.value].push_back({e.tsNs, e.tsNs + e.durNs});
  }
  for (const auto& se : events) {
    const auto& e = se.event;
    const std::int64_t begin = e.tsNs, end = e.tsNs + e.durNs;
    std::int64_t covered = 0;
    if (auto it = children.find(e.a0.value); it != children.end()) {
      // Union of the children's intervals, clipped to the parent: nested
      // calls on several threads may overlap each other.
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t curB = 0, curE = 0;
      bool open = false;
      for (auto [b, en] : iv) {
        b = std::max(b, begin);
        en = std::min(en, end);
        if (en <= b) continue;
        if (open && b <= curE) {
          curE = std::max(curE, en);
        } else {
          if (open) covered += curE - curB;
          curB = b;
          curE = en;
          open = true;
        }
      }
      if (open) covered += curE - curB;
    }
    out[e.name].push_back({double(e.durNs) * 1e-6,
                           double(e.durNs - covered) * 1e-6});
  }
  return out;
}

std::uint64_t SpanLog::dropped() const {
  return recorder_ ? recorder_->droppedEvents() : 0;
}

bool SpanLog::writeChromeJson(const std::string& path) const {
  if (!recorder_) return false;
  std::ofstream os(path);
  if (!os) return false;
  recorder_->writeJson(os);
  return bool(os);
}

}  // namespace perfbench
