#include "serve/detect_endpoint.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <locale>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/evaluator.hpp"
#include "engine/tiler.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"
#include "obs/json.hpp"
#include "text/text_cursor.hpp"

namespace hsd::serve {

namespace {

/// Numeric query parameter. A missing one leaves `out` untouched; a
/// present one must be one number (an empty or bare value is not), else
/// this returns false with `err` set.
bool numericParam(const net::HttpRequest& req, const char* name, double& out,
                  std::string& err) {
  const std::optional<std::string> v = req.queryParam(name);
  if (!v) return true;
  const std::optional<double> d = text::parseNumber<double>(*v);
  if (!d) {
    err = std::string("bad numeric value for '") + name + "': " + *v;
    return false;
  }
  out = *d;
  return true;
}

/// 0|1 flag query parameter, like numericParam: missing leaves `out`
/// untouched, anything but "0" or "1" fails.
bool flagParam(const net::HttpRequest& req, const char* name, bool& out,
               std::string& err) {
  const std::optional<std::string> v = req.queryParam(name);
  if (!v) return true;
  if (*v != "0" && *v != "1") {
    err = std::string("bad flag for '") + name + "' (want 0 or 1): " + *v;
    return false;
  }
  out = *v == "1";
  return true;
}

/// Media type of the request body with any ";charset=..." suffix and
/// surrounding whitespace stripped, lower-cased. Empty when absent.
std::string mediaType(const net::HttpRequest& req) {
  const std::string* ct = req.header("content-type");
  if (ct == nullptr) return {};
  std::string t = ct->substr(0, ct->find(';'));
  while (!t.empty() && t.back() == ' ') t.pop_back();
  std::size_t b = 0;
  while (b < t.size() && t[b] == ' ') ++b;
  t.erase(0, b);
  for (char& c : t) c = char(std::tolower(static_cast<unsigned char>(c)));
  return t;
}

net::HttpResponse errorResponse(int status, const std::string& detail) {
  return net::HttpResponse::text(
      status, std::string(net::statusReason(status)) + ": " + detail + "\n");
}

/// True when the request opted into per-request profiling
/// (`X-Profile: 1`; any other value is "off", never an error).
bool wantsProfile(const net::HttpRequest& req) {
  const std::string* h = req.header("x-profile");
  return h != nullptr && *h == "1";
}

/// One-line profile JSON for the X-Profile response header and the
/// recent-profile ring: wire/queue/run wall split, arena growth, cache
/// deltas, the per-stage EngineStats table the pooled context already
/// collected — no extra locking on the request path — and, last, the
/// serving model's fingerprint.
std::string buildProfileJson(const ServeResult& sr, std::uint64_t wireId,
                             const std::string& modelId) {
  const engine::CacheStats total = sr.cacheTotal();
  obs::JsonWriter w;
  w.beginObject().field("wireId", wireId).field("status", toString(sr.status));
  if (sr.trace.valid()) w.field("trace", obs::formatTraceId(sr.trace));
  w.field("queueSeconds", sr.queueSeconds).field("runSeconds", sr.runSeconds);
  w.field("arenaReservedBytes", sr.arenaReservedBytes);
  w.key("cache").beginObject().field("hits", total.hits);
  w.field("misses", total.misses);
  w.endObject().key("stages").raw(sr.statsJson.empty() ? "{}" : sr.statsJson);
  w.field("model", modelId).endObject();
  return w.str();
}

}  // namespace

DetectionEndpoint::DetectionEndpoint(DetectionServer& server,
                                     const core::Detector& detector,
                                     DetectEndpointConfig cfg)
    : server_(server), detector_(detector), cfg_(cfg) {
  modelId_ = obs::hex64(detector_.fingerprint());
  metrics_ = std::make_shared<obs::MetricsRegistry>();
  // Registration order is exposition order — keep it stable.
  for (std::size_t i = 0; i < statusTotal_.size(); ++i)
    statusTotal_[i] = &metrics_->counter(
        "hsd_detect_requests_total", "Wire detection responses by HTTP status",
        {{"status", kStatusLabels[i]}});
  inflight_ = &metrics_->gauge("hsd_detect_inflight",
                               "Wire detection requests inside the handler");
  requestBytes_ = &metrics_->counter("hsd_detect_request_bytes_total",
                                     "Layout bytes received over the wire");
  responseBytes_ = &metrics_->counter("hsd_detect_response_bytes_total",
                                      "Report bytes sent over the wire");
  disconnectCancels_ = &metrics_->counter(
      "hsd_detect_disconnect_cancels_total",
      "Runs cancelled because the client disconnected mid-request");
  latency_ = &metrics_->histogram(
      "hsd_detect_seconds",
      "Wire detection wall time per request, admission to reply");
}

void DetectionEndpoint::mount(net::HttpServer& http) {
  http_ = &http;
  http.handlePost("/detect",
                  [this](const net::HttpRequest& req) { return handle(req); });
}

void DetectionEndpoint::countStatus(int status) {
  // The search skips "other", so a code without a label ends there.
  const auto it = std::find(kStatusLabels.begin(), kStatusLabels.end() - 1,
                            std::to_string(status));
  statusTotal_[std::size_t(it - kStatusLabels.begin())]->inc();
}

net::HttpResponse DetectionEndpoint::handle(const net::HttpRequest& req) {
  const std::uint64_t wireId =
      nextWireId_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Wire trace propagation: honor the client's W3C `traceparent` when it
  // parses, mint a fresh id otherwise (the spec's restart rule — an
  // invalid header is ignored, never a 400). The id rides the handler
  // thread for the whole request so even rejection-path logs correlate.
  obs::TraceId trace;
  if (const std::string* tp = req.header("traceparent"))
    obs::parseTraceparent(*tp, trace);
  if (!trace.valid()) trace = obs::makeTraceId();
  const obs::ScopedTraceId traceScope(trace);
  obs::logTo(server_.config().log.get(), obs::LogLevel::kInfo, "wire",
             "detect request", {"wireId", wireId}, {"bytes", req.body.size()});
  inflight_->inc();
  requestBytes_->inc(req.body.size());
  const auto t0 = std::chrono::steady_clock::now();
  net::HttpResponse res = process(req, wireId, trace);
  // Every response — success or rejection — is stamped with the wire id
  // and trace id so a client report line can be matched to server logs,
  // /tracez?trace= and /logz?trace=.
  res.withHeader("X-Request-Id", std::to_string(wireId));
  res.withHeader("X-Trace-Id", obs::formatTraceId(trace));
  countStatus(res.status);
  responseBytes_->inc(res.body.size());
  latency_->observe(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count(),
                    trace);
  inflight_->dec();
  return res;
}

net::HttpResponse DetectionEndpoint::process(const net::HttpRequest& req,
                                             std::uint64_t wireId,
                                             obs::TraceId trace) {
  // --- Parameters (cheap; before admission so garbage fails fast) ----
  double bias = 0.0, deadlineMs = 0.0;
  bool removal = true, feedback = true;
  double tileSize = 0.0, halo = 0.0, tileThreads = 0.0;
  std::string err;
  if (!numericParam(req, "bias", bias, err) ||
      !flagParam(req, "removal", removal, err) ||
      !flagParam(req, "feedback", feedback, err) ||
      !numericParam(req, "deadline-ms", deadlineMs, err) ||
      !numericParam(req, "tile-size", tileSize, err) ||
      !numericParam(req, "halo", halo, err) ||
      !numericParam(req, "tile-threads", tileThreads, err))
    return errorResponse(400, err);
  engine::TilingParams tiling;
  try {
    tiling = engine::makeTilingParams(tileSize, halo, tileThreads);
    // The plan's own halo floor check: an undersized halo is a client
    // error here, where the engine would turn it into a 500.
    engine::checkTilePlan(tiling, detector_.params.clip);
  } catch (const std::invalid_argument& e) {
    return errorResponse(400, e.what());
  }
  // The header form loses to the query param; both are optional, and
  // neither may be negative (0 means no deadline).
  const std::string* h = req.header("x-deadline-ms");
  if (h != nullptr && !req.queryParam("deadline-ms")) {
    const std::optional<double> d = text::parseNumber<double>(*h);
    if (!d) return errorResponse(400, "bad X-Deadline-Ms header: " + *h);
    deadlineMs = *d;
  }
  if (deadlineMs < 0.0)
    return errorResponse(
        400, "negative deadline: " + std::to_string(deadlineMs) + " ms");

  // --- Admission -----------------------------------------------------
  if (!server_.accepting())
    return errorResponse(503, "detection server is draining");
  const std::size_t depth = server_.queueDepth();
  if (depth >= cfg_.maxQueueDepth) {
    // Estimate when a slot frees up: queued work ahead of this request,
    // at the observed p50 run latency, spread over the worker count.
    const double p50 = server_.runLatency().quantile(0.50);
    const double workers = double(std::max<std::size_t>(
        1, server_.config().workers));
    const double eta = double(depth + 1) * p50 / workers;
    const long long retry = std::llround(std::ceil(eta));
    net::HttpResponse res = errorResponse(
        429, "queue full (" + std::to_string(depth) + " waiting)");
    res.withHeader("Retry-After", std::to_string(std::max(1LL, retry)));
    return res;
  }

  // --- Body -> Layout ------------------------------------------------
  if (req.body.empty()) return errorResponse(400, "empty layout body");
  const std::string type = mediaType(req);
  Layout layout;
  try {
    if (type.empty() || type == "text/plain" ||
        type == "application/x-hsd-layout") {
      std::istringstream is(req.body);
      layout = gds::readAsciiLayout(is);
    } else if (type == "application/octet-stream" ||
               type == "application/gdsii" || type == "application/x-gdsii") {
      std::istringstream is(req.body);
      layout = gds::readGdsii(is);
    } else {
      return errorResponse(
          415, "unsupported layout content-type '" + type +
                   "' (use text/plain for the ASCII format or "
                   "application/octet-stream for GDSII)");
    }
  } catch (const std::exception& e) {
    return errorResponse(400, std::string("malformed layout: ") + e.what());
  }

  // --- Evaluation config ---------------------------------------------
  core::EvalParams ep;
  ep.extract.clip = detector_.params.clip;
  ep.removal.clip = detector_.params.clip;
  ep.decisionBias = bias;
  ep.useRemoval = removal;
  ep.useFeedback = feedback;
  ep.tiling = tiling;

  std::optional<std::chrono::steady_clock::duration> timeout;
  if (deadlineMs > 0.0)
    timeout = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(deadlineMs));

  // --- Submit and await, watching for client disconnect --------------
  auto cancel = std::make_shared<CancelSource>();
  std::future<ServeResult> fut =
      server_.submit(detector_, layout, std::move(ep), timeout, nullptr,
                     cancel, trace);
  bool disconnected = false;
  for (;;) {
    if (fut.wait_for(std::chrono::milliseconds(25)) ==
        std::future_status::ready)
      break;
    // EOF on a MSG_PEEK probe means the client went away: cancel the run
    // so the context frees up. Gated on !draining() — the transport's
    // stop() shuts read sides down, which is indistinguishable from a
    // disconnect, and drained requests must complete. Whatever happens,
    // keep waiting on the future: the submitted layout is this frame's
    // local, referenced until the promise resolves.
    if (!disconnected && req.clientFd >= 0 &&
        (http_ == nullptr || !http_->draining())) {
      char b;
      const ssize_t r =
          ::recv(req.clientFd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
      if (r == 0) {
        disconnected = true;
        disconnectCancels_->inc();
        cancel->cancel();
      }
    }
  }
  const ServeResult sr = fut.get();

  // --- Typed response -------------------------------------------------
  switch (sr.status) {
    case RequestStatus::kOk: break;
    case RequestStatus::kTimeout: {
      net::HttpResponse res = errorResponse(
          504, "deadline of " + std::to_string(deadlineMs) + " ms exceeded");
      res.withHeader("X-Serve-Request", std::to_string(sr.requestId));
      return res;
    }
    case RequestStatus::kCancelled: {
      // Nobody is listening, but the status line documents the outcome
      // for tests and proxies; close, since the peer is gone.
      net::HttpResponse res =
          errorResponse(499, "client disconnected; run cancelled");
      res.closeConnection = true;
      return res;
    }
    case RequestStatus::kError:
      return errorResponse(500, "evaluation failed: " + sr.error);
    case RequestStatus::kRejected:
      return errorResponse(503, "detection server is draining");
  }

  std::ostringstream body;
  body.imbue(std::locale::classic());
  gds::writeWindowList(body, sr.result.reported, detector_.params.clip);
  const engine::CacheStats total = sr.cacheTotal();
  net::HttpResponse res;
  res.status = 200;
  res.body = body.str();
  res.withHeader("X-Serve-Request", std::to_string(sr.requestId))
      .withHeader("X-Candidate-Clips",
                  std::to_string(sr.result.candidateClips))
      .withHeader("X-Flagged-Before-Removal",
                  std::to_string(sr.result.flaggedBeforeRemoval))
      .withHeader("X-Cache-Hits", std::to_string(total.hits))
      .withHeader("X-Cache-Misses", std::to_string(total.misses));
  if (wantsProfile(req)) {
    std::string profile = buildProfileJson(sr, wireId, modelId_);
    res.withHeader("X-Profile", profile);
    rememberProfile(std::move(profile));
  }
  return res;
}

void DetectionEndpoint::rememberProfile(std::string profileJson) {
  const std::lock_guard<std::mutex> lock(profileMu_);
  recentProfiles_.push_back(std::move(profileJson));
  while (recentProfiles_.size() > kProfileRing) recentProfiles_.pop_front();
}

std::string DetectionEndpoint::statsJson() const {
  obs::JsonWriter w;
  w.beginObject().key("responses").beginObject();
  for (std::size_t i = 0; i < statusTotal_.size(); ++i)
    w.field(kStatusLabels[i], statusTotal_[i]->value());
  w.endObject();
  w.field("inflight", inflight_->value());
  w.field("requestBytes", requestBytes_->value());
  w.field("responseBytes", responseBytes_->value());
  w.field("disconnectCancels", disconnectCancels_->value());
  w.field("maxQueueDepth", cfg_.maxQueueDepth);
  w.key("latencySeconds").beginObject();
  w.field("p50", latency_->quantile(0.50));
  w.field("p95", latency_->quantile(0.95));
  w.field("p99", latency_->quantile(0.99)).endObject();
  w.key("recentProfiles").beginArray();
  {
    const std::lock_guard<std::mutex> lock(profileMu_);
    for (const std::string& p : recentProfiles_) w.raw(p);
  }
  w.endArray().endObject();
  return w.str();
}

}  // namespace hsd::serve
