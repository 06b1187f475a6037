// AdminServer: the live observability endpoint — an embedded HTTP admin
// surface (net::HttpServer underneath) that exposes the in-process
// instrumentation of src/obs while the process runs, instead of only as
// files written at exit:
//
//   GET /          plain-text endpoint index
//   GET /healthz   liveness: 200 "ok" as long as the server thread runs
//   GET /readyz    readiness: 200 "ready" when every registered readiness
//                  hook returns true, else 503 "unready" (hsd_serve wires
//                  DetectionServer::accepting() here, so readiness flips
//                  on after the ContextPool is pre-warmed and flips off
//                  the moment a drain begins)
//   GET /metrics   Prometheus text exposition 0.0.4: every mounted
//                  MetricsRegistry in mount order, then the admin's own
//                  self-metrics registry
//   GET /statsz    one JSON object per mounted stats provider (e.g. the
//                  DetectionServer statsJson() roll-up) plus uptime
//   GET /tracez    JSON snapshot of the mounted TraceRecorder: the newest
//                  spans by end time, oldest first (?limit=N caps the
//                  span count, default 256; ?trace=<32-hex id> keeps
//                  only that request's spans) — non-destructive,
//                  recording continues
//   GET /logz      JSON-lines snapshot of the mounted LogRecorder: a meta
//                  line (counts, drops, filters) followed by one record
//                  object per line: the newest records, oldest first.
//                  ?level= floors the level, ?limit= caps the record
//                  count (default 256), ?trace= keeps one request's
//                  records
//   GET /sloz      the mounted SloTracker's multi-window availability /
//                  latency burn-rate report (also folded into /statsz as
//                  the "slo" section, and into /readyz?degraded)
//   GET /modelz    the mounted ModelStatsRecorder's per-cluster verdict
//                  counts, margin quantiles and low-margin captures, plus
//                  the DriftScorer's per-cluster PSI report when one is
//                  mounted (also folded into /statsz as the "model"
//                  section, and into /readyz?degraded). ?limit= caps the
//                  capture count (default 64; the newest, oldest first),
//                  ?cluster= restricts to one named cluster (unknown
//                  names are a 400)
//
// Malformed query parameters (a ?limit= that is not a positive integer,
// an unknown ?level=, a ?trace= that is not a 32-hex id — including any
// of them present but empty) are a 400, never a silent default.
// /readyz?degraded (the key's presence, with or without a value) returns
// a JSON detail view (per-hook readiness by name, plus the SLO and drift
// status when mounted) instead of the bare ready/unready body; the
// status code contract is unchanged. Every endpoint but the index is one
// entry of a route table — path, handler, and its
// hsd_admin_scrapes_total{endpoint=} counter.
//
// Mount everything before start(); the handler pool calls the hooks
// concurrently, so providers must be thread-safe (renderPrometheus,
// TraceRecorder::snapshot, LogRecorder::snapshot, SloTracker, and
// DetectionServer::statsJson all are). The admin server is transport
// only: it never mutates the serving state it reports on.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/http.hpp"
#include "obs/drift.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/model_stats.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace hsd::obs {

/// Where the admin server listens. It serves on the transport's default
/// two handler threads: scrapes are short and few.
struct AdminOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  std::string bindAddress = "127.0.0.1";
};

class AdminServer {
 public:
  explicit AdminServer(AdminOptions opts = {});
  ~AdminServer();  ///< stop()

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Mount a registry on /metrics (rendered in mount order). Families
  /// must be unique across mounted registries — the exposition is a
  /// plain concatenation.
  void addMetrics(std::shared_ptr<const MetricsRegistry> registry);

  /// Mount the span recorder behind /tracez. At most one; pass nullptr
  /// to unmount. /tracez reports {"enabled": false} without one.
  void setTracer(std::shared_ptr<const TraceRecorder> tracer);

  /// Mount the log recorder behind /logz. At most one; pass nullptr to
  /// unmount. /logz reports an {"enabled": false} meta line without one.
  void setLog(std::shared_ptr<const LogRecorder> log);

  /// Mount the SLO tracker behind /sloz (also rendered as the "slo"
  /// section of /statsz and the "slo" object of /readyz?degraded). At
  /// most one; pass nullptr to unmount. Scrapes drive its sampling.
  void setSlo(std::shared_ptr<SloTracker> slo);

  /// Mount the model-quality recorder behind /modelz (also rendered as
  /// the "model" section of /statsz). At most one; pass nullptr to
  /// unmount. /modelz reports {"enabled": false} without one.
  void setModelStats(std::shared_ptr<const ModelStatsRecorder> rec);

  /// Mount the drift scorer: its PSI report joins /modelz and the
  /// /readyz?degraded detail view (a drifted cluster marks the process
  /// degraded, like an SLO burn). At most one; pass nullptr to unmount.
  /// Scrapes drive its sampling, like the SLO tracker's.
  void setDrift(std::shared_ptr<DriftScorer> drift);

  /// Mount a /statsz section: `fn` must return a complete JSON value
  /// (object/number/string) and be thread-safe. Sections render in mount
  /// order as {"<key>": <fn()>, ...}; a throwing provider degrades to an
  /// {"error": ...} object for its key, never a failed scrape.
  void addStatsProvider(std::string key, std::function<std::string()> fn);

  /// Add a readiness hook; /readyz is 200 only when ALL hooks return
  /// true. With no hooks readiness equals liveness. The named overload
  /// labels the hook in the /readyz?degraded detail view; the unnamed
  /// one gets "hook<index>".
  void addReadiness(std::function<bool()> ready);
  void addReadiness(std::string name, std::function<bool()> ready);

  /// Bind and serve. Throws std::runtime_error when the port can't be
  /// bound. Call after mounting; mounting after start() throws.
  void start();
  void stop();

  bool running() const { return http_.running(); }
  /// The bound port (the kernel's pick when AdminOptions::port was 0).
  std::uint16_t port() const { return http_.port(); }

 private:
  /// One endpoint: its path, its handler, and its scrape counter
  /// (hsd_admin_scrapes_total{endpoint=<path>}, bumped on every hit).
  struct Route {
    const char* path;
    net::HttpResponse (AdminServer::*handle)(const net::HttpRequest&);
    Counter* scrapes = nullptr;
  };

  net::HttpResponse handleHealthz(const net::HttpRequest& req);
  net::HttpResponse handleMetrics(const net::HttpRequest& req);
  net::HttpResponse handleStatsz(const net::HttpRequest& req);
  net::HttpResponse handleTracez(const net::HttpRequest& req);
  net::HttpResponse handleLogz(const net::HttpRequest& req);
  net::HttpResponse handleSloz(const net::HttpRequest& req);
  net::HttpResponse handleModelz(const net::HttpRequest& req);
  net::HttpResponse handleReadyz(const net::HttpRequest& req);
  void requireNotStarted(const char* what) const;

  net::HttpServer http_;
  std::vector<std::shared_ptr<const MetricsRegistry>> registries_;
  std::shared_ptr<const TraceRecorder> tracer_;
  std::shared_ptr<const LogRecorder> log_;
  std::shared_ptr<SloTracker> slo_;
  std::shared_ptr<const ModelStatsRecorder> modelStats_;
  std::shared_ptr<DriftScorer> drift_;
  std::vector<std::pair<std::string, std::function<std::string()>>> stats_;
  std::vector<std::pair<std::string, std::function<bool()>>> readiness_;
  /// The admin's own registry (uptime, scrape counters), rendered last
  /// on /metrics.
  std::shared_ptr<MetricsRegistry> self_;
  /// Every endpoint but the "/" index, in index order.
  std::array<Route, 8> routes_;
  Gauge* uptime_ = nullptr;  ///< whole seconds since start()
  std::chrono::steady_clock::time_point started_;
};

}  // namespace hsd::obs
