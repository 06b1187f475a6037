// The benchmark's own span recording: a scope around each call into a
// layer's public API, recorded through obs::TraceRecorder::recordSpan
// with its id and its parent's id as span args. Self time (duration
// minus the part its children cover) is derived from the recorded spans,
// and the same spans are written as Chrome trace JSON for Perfetto.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

class SpanLog {
 public:
  /// A disabled log records nothing; its scopes cost one branch.
  explicit SpanLog(bool enabled);

  bool enabled() const { return recorder_ != nullptr; }

  /// RAII span: `name` is the layer call ("gds.readGdsii"), `layer` its
  /// layer (a string literal; it becomes the trace category). The
  /// innermost open scope of the same thread is the parent.
  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    hsd::obs::TraceRecorder* rec_;
    std::string name_;
    const char* layer_ = nullptr;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::chrono::steady_clock::time_point t0_;
  };

  struct SpanTime {
    double durationMs = 0.0;
    double selfMs = 0.0;
  };
  /// Every recorded span's duration and self time, by span name.
  std::map<std::string, std::vector<SpanTime>> times() const;

  /// Spans lost to a full ring (the derivation needs every span).
  std::uint64_t dropped() const;

  /// Chrome trace-event JSON (loadable in Perfetto). False on I/O error.
  bool writeChromeJson(const std::string& path) const;

 private:
  std::shared_ptr<hsd::obs::TraceRecorder> recorder_;
};

}  // namespace perfbench
