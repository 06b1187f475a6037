#include "serve/detect_endpoint.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <locale>
#include <optional>
#include <sstream>
#include <utility>

#include "core/evaluator.hpp"
#include "engine/tiler.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"

namespace hsd::serve {

namespace {

/// Strict full-string double parse ("" and trailing junk both fail).
bool parseDouble(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtod(s.c_str(), &end);
  return errno != ERANGE && end != nullptr && *end == '\0' &&
         std::isfinite(out);
}

/// Query/header numeric parameter. Returns false (with `err` set) on a
/// malformed value; a missing parameter leaves `out` untouched.
bool numericParam(const net::HttpRequest& req, const char* name, double& out,
                  std::string& err) {
  const std::string v = req.queryParam(name);
  if (v.empty()) return true;
  if (!parseDouble(v, out)) {
    err = std::string("bad numeric value for '") + name + "': " + v;
    return false;
  }
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
  std::uint64_t hits = 0, misses = 0;
  for (const auto& [stage, c] : sr.cacheStats) {
    hits += c.hits;
    misses += c.misses;
  }
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(6);
  os << std::fixed;
  os << "{\"wireId\": " << wireId << ", \"status\": \"" << toString(sr.status)
     << '"';
  if (sr.trace.valid())
    os << ", \"trace\": \"" << obs::formatTraceId(sr.trace) << '"';
  os << ", \"queueSeconds\": " << sr.queueSeconds
     << ", \"runSeconds\": " << sr.runSeconds
     << ", \"arenaReservedBytes\": " << sr.arenaReservedBytes
     << ", \"cache\": {\"hits\": " << hits << ", \"misses\": " << misses
     << "}, \"stages\": "
     << (sr.statsJson.empty() ? std::string("{}") : sr.statsJson)
     << ", \"model\": \"" << modelId << "\"}";
  return os.str();
}

}  // namespace

DetectionEndpoint::DetectionEndpoint(DetectionServer& server,
                                     const core::Detector& detector,
                                     DetectEndpointConfig cfg)
    : server_(server), detector_(detector), cfg_(cfg) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(detector_.fingerprint()));
  modelId_ = hex;
  metrics_ = std::make_shared<obs::MetricsRegistry>();
  // Registration order is exposition order — keep it stable.
  const auto statusCounter = [this](const char* code) {
    return &metrics_->counter("hsd_detect_requests_total",
                              "Wire detection responses by HTTP status",
                              {{"status", code}});
  };
  status200_ = statusCounter("200");
  status400_ = statusCounter("400");
  status415_ = statusCounter("415");
  status429_ = statusCounter("429");
  status499_ = statusCounter("499");
  status500_ = statusCounter("500");
  status503_ = statusCounter("503");
  status504_ = statusCounter("504");
  statusOther_ = statusCounter("other");
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
  switch (status) {
    case 200: status200_->inc(); break;
    case 400: status400_->inc(); break;
    case 415: status415_->inc(); break;
    case 429: status429_->inc(); break;
    case 499: status499_->inc(); break;
    case 500: status500_->inc(); break;
    case 503: status503_->inc(); break;
    case 504: status504_->inc(); break;
    default: statusOther_->inc(); break;
  }
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
  double bias = 0.0, removal = 1.0, feedback = 1.0, deadlineMs = -1.0;
  double tileSize = 0.0, halo = 0.0, tileThreads = 0.0;
  std::string err;
  if (!numericParam(req, "bias", bias, err) ||
      !numericParam(req, "removal", removal, err) ||
      !numericParam(req, "feedback", feedback, err) ||
      !numericParam(req, "deadline-ms", deadlineMs, err) ||
      !numericParam(req, "tile-size", tileSize, err) ||
      !numericParam(req, "halo", halo, err) ||
      !numericParam(req, "tile-threads", tileThreads, err))
    return errorResponse(400, err);
  if (deadlineMs < 0.0) {
    // The header form loses to the query param; both are optional.
    if (const std::string* h = req.header("x-deadline-ms")) {
      if (!parseDouble(*h, deadlineMs))
        return errorResponse(400, "bad X-Deadline-Ms header: " + *h);
    }
  }
  if (deadlineMs < 0.0) deadlineMs = cfg_.defaultDeadlineMs;
  if (cfg_.maxDeadlineMs > 0.0 &&
      (deadlineMs <= 0.0 || deadlineMs > cfg_.maxDeadlineMs))
    deadlineMs = cfg_.maxDeadlineMs;

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
    const long long retry = std::llround(std::ceil(
        std::max(cfg_.retryAfterMinSeconds, eta)));
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
  ep.useRemoval = removal != 0.0;
  ep.useFeedback = feedback != 0.0;
  ep.tiling.tileSize = Coord(tileSize);
  ep.tiling.halo = Coord(halo);
  ep.tiling.tileThreads = std::size_t(std::max(0.0, tileThreads));
  if (ep.tiling.enabled() && ep.tiling.halo != 0 &&
      ep.tiling.halo < engine::minTileHalo(detector_.params.clip))
    // Surface the tiling-exactness violation as a client error here;
    // letting it reach the engine would turn it into a 500.
    return errorResponse(
        400, "halo " + std::to_string(ep.tiling.halo) +
                 " below exactness minimum " +
                 std::to_string(engine::minTileHalo(detector_.params.clip)));

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
  std::uint64_t hits = 0, misses = 0;
  for (const auto& [stage, c] : sr.cacheStats) {
    hits += c.hits;
    misses += c.misses;
  }
  net::HttpResponse res;
  res.status = 200;
  res.body = body.str();
  res.withHeader("X-Serve-Request", std::to_string(sr.requestId))
      .withHeader("X-Candidate-Clips",
                  std::to_string(sr.result.candidateClips))
      .withHeader("X-Flagged-Before-Removal",
                  std::to_string(sr.result.flaggedBeforeRemoval))
      .withHeader("X-Cache-Hits", std::to_string(hits))
      .withHeader("X-Cache-Misses", std::to_string(misses));
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
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(6);
  os << std::fixed;
  os << "{\"responses\": {\"200\": " << status200_->value()
     << ", \"400\": " << status400_->value()
     << ", \"415\": " << status415_->value()
     << ", \"429\": " << status429_->value()
     << ", \"499\": " << status499_->value()
     << ", \"500\": " << status500_->value()
     << ", \"503\": " << status503_->value()
     << ", \"504\": " << status504_->value()
     << ", \"other\": " << statusOther_->value()
     << "}, \"inflight\": " << inflight_->value()
     << ", \"requestBytes\": " << requestBytes_->value()
     << ", \"responseBytes\": " << responseBytes_->value()
     << ", \"disconnectCancels\": " << disconnectCancels_->value()
     << ", \"maxQueueDepth\": " << cfg_.maxQueueDepth
     << ", \"latencySeconds\": {\"p50\": " << latency_->quantile(0.50)
     << ", \"p95\": " << latency_->quantile(0.95)
     << ", \"p99\": " << latency_->quantile(0.99)
     << "}, \"recentProfiles\": [";
  {
    const std::lock_guard<std::mutex> lock(profileMu_);
    bool first = true;
    for (const std::string& p : recentProfiles_) {
      if (!first) os << ", ";
      first = false;
      os << p;
    }
  }
  os << "]}";
  return os.str();
}

}  // namespace hsd::serve
