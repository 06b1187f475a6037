// Detection-as-a-service over the wire: the HTTP face of
// DetectionServer. A DetectionEndpoint mounts POST /detect on a
// net::HttpServer and bridges each request to DetectionServer::submit(),
// so remote clients get the same ContextPool + shared StageCache path —
// and byte-identical reports — as in-process callers.
//
// Request contract (full wire-protocol reference: DESIGN.md §12):
//  - body: the layout. Content-Type selects the parser —
//    "text/plain" (or absent) = the ASCII layout format,
//    "application/octet-stream" / "application/gdsii" = raw GDSII
//    binary. Chunked upload works (the transport de-frames it); bodies
//    are capped by the HttpServer's maxBodyBytes (413 beyond it).
//  - query params: detector config (bias, removal=0|1, feedback=0|1),
//    tiling (tile-size, halo, tile-threads), and deadline-ms (also
//    accepted as an X-Deadline-Ms header; query wins). Bad numerics are
//    a 400 before any work happens.
//  - response 200: the report in windows format (gds::writeWindowList
//    bytes — exactly what hsd_detect writes), with the run identified in
//    headers: X-Request-Id (wire-level id, present on every response
//    including rejections), X-Trace-Id (the request's 32-hex correlation
//    id — parsed from a W3C `traceparent` request header when one is
//    sent, minted otherwise; also on every response, and the key into
//    /tracez?trace= and /logz?trace=), X-Serve-Request (the
//    DetectionServer submission index, correlating with serve/queued +
//    serve/run trace spans), X-Candidate-Clips /
//    X-Flagged-Before-Removal (the funnel counters), X-Cache-Hits /
//    X-Cache-Misses (this request's shared-cache traffic).
//  - profiles: a request carrying `X-Profile: 1` gets an `X-Profile`
//    response header on 200 — one-line JSON with the queue/run split,
//    arena growth, cache deltas, the per-stage EngineStats table and
//    the serving model's fingerprint ("model", 16 hex digits) — and the
//    same object lands in the statsJson() recent-profile ring.
//
// Admission control: before parsing the body, the endpoint consults the
// server's live queue depth; at or beyond maxQueueDepth it answers 429
// with a Retry-After estimated from the p50 run latency — overload is
// typed, never a hung or reset connection. A draining server answers
// 503.
//
// Typed failures: 400 (malformed layout/GDSII/params, undersized halo),
// 413/431 (transport caps), 415 (unknown Content-Type), 429 (queue
// full), 499 (client disconnected; the run is cancelled server-side —
// the handler probes the connection while waiting and fires the
// request's CancelSource), 503 (draining), 504 (deadline exceeded).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "core/trainer.hpp"
#include "net/http.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_id.hpp"
#include "serve/server.hpp"

namespace hsd::serve {

struct DetectEndpointConfig {
  /// Admission bound: a POST arriving while queueDepth() >= this gets a
  /// 429 + Retry-After instead of queueing. 0 rejects everything (useful
  /// in tests); pick >= expected burst for production.
  std::size_t maxQueueDepth = 64;
  /// Deadline applied when the request carries none (0 = unbounded).
  double defaultDeadlineMs = 0.0;
  /// Hard ceiling on the per-request deadline; client asks beyond it are
  /// clamped (0 = no ceiling).
  double maxDeadlineMs = 0.0;
  /// Floor for the Retry-After estimate, seconds.
  double retryAfterMinSeconds = 1.0;
};

/// Bridges POST /detect to a DetectionServer. Thread-safe: the handler
/// runs concurrently on the transport's handler pool. The detector and
/// server must outlive the endpoint; the endpoint must outlive the
/// HttpServer it is mounted on (or be unmounted by stopping that server
/// first).
class DetectionEndpoint {
 public:
  DetectionEndpoint(DetectionServer& server, const core::Detector& detector,
                    DetectEndpointConfig cfg = {});

  DetectionEndpoint(const DetectionEndpoint&) = delete;
  DetectionEndpoint& operator=(const DetectionEndpoint&) = delete;

  /// Register POST /detect on `http`. Call before http.start(). The
  /// endpoint keeps a pointer to `http` to distinguish a client
  /// disconnect from the server's own drain (stop() shuts read sides
  /// down, which looks like EOF).
  void mount(net::HttpServer& http);

  /// The wire-plane metric registry (mount on the admin server next to
  /// the DetectionServer's):
  ///   hsd_detect_requests_total{status="200"|...} — responses by code,
  ///   hsd_detect_inflight — requests inside the handler right now,
  ///   hsd_detect_request_bytes_total / hsd_detect_response_bytes_total,
  ///   hsd_detect_disconnect_cancels_total — runs cancelled because the
  ///     client went away,
  ///   hsd_detect_seconds — wall time per request, admission to reply.
  std::shared_ptr<obs::MetricsRegistry> metrics() const { return metrics_; }

  /// One-line JSON stats blob (admin /statsz "detect" section).
  std::string statsJson() const;

  /// The request handler itself — public for direct-call tests; normal
  /// traffic reaches it through mount().
  net::HttpResponse handle(const net::HttpRequest& req);

 private:
  net::HttpResponse process(const net::HttpRequest& req, std::uint64_t wireId,
                            obs::TraceId trace);
  void countStatus(int status);
  void rememberProfile(std::string profileJson);

  DetectionServer& server_;
  const core::Detector& detector_;
  /// detector_.fingerprint() as 16 hex digits, computed once here: the
  /// X-Profile "model" field.
  std::string modelId_;
  DetectEndpointConfig cfg_;
  net::HttpServer* http_ = nullptr;  ///< set by mount(); drain detection

  std::atomic<std::uint64_t> nextWireId_{0};

  /// Last few X-Profile request profiles, newest last (statsJson
  /// "recentProfiles"). Request-grained, so a plain mutex is fine.
  static constexpr std::size_t kProfileRing = 8;
  mutable std::mutex profileMu_;
  std::deque<std::string> recentProfiles_;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* status200_ = nullptr;
  obs::Counter* status400_ = nullptr;
  obs::Counter* status415_ = nullptr;
  obs::Counter* status429_ = nullptr;
  obs::Counter* status499_ = nullptr;
  obs::Counter* status500_ = nullptr;
  obs::Counter* status503_ = nullptr;
  obs::Counter* status504_ = nullptr;
  obs::Counter* statusOther_ = nullptr;
  obs::Gauge* inflight_ = nullptr;
  obs::Counter* requestBytes_ = nullptr;
  obs::Counter* responseBytes_ = nullptr;
  obs::Counter* disconnectCancels_ = nullptr;
  obs::Histogram* latency_ = nullptr;
};

}  // namespace hsd::serve
