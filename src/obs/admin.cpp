#include "obs/admin.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "obs/json.hpp"
#include "text/text_cursor.hpp"

namespace hsd::obs {

namespace {

constexpr const char* kPromContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/// Records each snapshot endpoint returns unless ?limit= says otherwise.
constexpr std::size_t kTracezLimit = 256;
constexpr std::size_t kLogzLimit = 256;
constexpr std::size_t kModelzLimit = 64;

/// Shared ?limit= parsing for the snapshot endpoints: absent keeps `out`
/// at its default and succeeds; anything but a positive base-10 integer
/// (text::parseNumber; an empty or bare value is not one) fails with a
/// message for the 400 body; values above 2^20 are clamped to it. No
/// silent defaulting on junk.
bool parseLimitParam(const net::HttpRequest& req, std::size_t& out,
                     std::string& err) {
  const std::optional<std::string> raw = req.queryParam("limit");
  if (!raw) return true;
  const std::optional<std::uint64_t> v =
      text::parseNumber<std::uint64_t>(*raw);
  if (!v || *v == 0) {
    err = "bad numeric value for 'limit': " + *raw;
    return false;
  }
  out = std::size_t(std::min<std::uint64_t>(*v, 1u << 20));
  return true;
}

/// Shared ?trace= parsing: absent leaves `out` empty; a present value
/// must be a 32-hex trace id.
bool parseTraceParam(const net::HttpRequest& req, std::optional<TraceId>& out,
                     std::string& err) {
  const std::optional<std::string> raw = req.queryParam("trace");
  if (!raw) return true;
  TraceId id;
  if (!parseTraceId(*raw, id)) {
    err = "bad trace id for 'trace' (want 32 hex chars): " + *raw;
    return false;
  }
  out = id;
  return true;
}

net::HttpResponse badRequest(const std::string& detail) {
  return net::HttpResponse::text(400, "Bad Request: " + detail + "\n");
}

}  // namespace

AdminServer::AdminServer(AdminOptions opts)
    : http_(net::HttpServerOptions{.port = opts.port,
                                   .bindAddress = opts.bindAddress}),
      self_(std::make_shared<MetricsRegistry>()),
      routes_{{{"/healthz", &AdminServer::handleHealthz},
               {"/readyz", &AdminServer::handleReadyz},
               {"/metrics", &AdminServer::handleMetrics},
               {"/statsz", &AdminServer::handleStatsz},
               {"/tracez", &AdminServer::handleTracez},
               {"/logz", &AdminServer::handleLogz},
               {"/sloz", &AdminServer::handleSloz},
               {"/modelz", &AdminServer::handleModelz}}} {
  // Registration order is exposition order — keep it stable. The scrape
  // counters predate the table and list /metrics, /statsz and /tracez
  // before the probes.
  uptime_ = &self_->gauge("hsd_admin_uptime_seconds",
                          "Whole seconds since the admin server started");
  for (const std::size_t i : {2, 3, 4, 0, 1, 5, 6, 7})
    routes_[i].scrapes = &self_->counter("hsd_admin_scrapes_total",
                                         "Admin endpoint hits by endpoint",
                                         {{"endpoint", routes_[i].path}});
  // The index lists the routes in registration order.
  http_.handle("/", [this](const net::HttpRequest&) {
    std::string body = "openhsd admin server\nendpoints:\n";
    for (const std::string& r : http_.routes()) body += "  " + r + "\n";
    return net::HttpResponse::text(200, std::move(body));
  });
  for (Route& r : routes_)
    http_.handle(r.path, [this, &r](const net::HttpRequest& req) {
      r.scrapes->inc();
      return (this->*r.handle)(req);
    });
}

AdminServer::~AdminServer() { stop(); }

void AdminServer::requireNotStarted(const char* what) const {
  if (http_.running())
    throw std::logic_error(std::string("AdminServer: ") + what +
                           " must happen before start()");
}

void AdminServer::addMetrics(std::shared_ptr<const MetricsRegistry> registry) {
  requireNotStarted("addMetrics");
  if (registry) registries_.push_back(std::move(registry));
}

void AdminServer::setTracer(std::shared_ptr<const TraceRecorder> tracer) {
  requireNotStarted("setTracer");
  tracer_ = std::move(tracer);
}

void AdminServer::setLog(std::shared_ptr<const LogRecorder> log) {
  requireNotStarted("setLog");
  log_ = std::move(log);
}

void AdminServer::setSlo(std::shared_ptr<SloTracker> slo) {
  requireNotStarted("setSlo");
  slo_ = std::move(slo);
}

void AdminServer::setModelStats(std::shared_ptr<const ModelStatsRecorder> rec) {
  requireNotStarted("setModelStats");
  modelStats_ = std::move(rec);
}

void AdminServer::setDrift(std::shared_ptr<DriftScorer> drift) {
  requireNotStarted("setDrift");
  drift_ = std::move(drift);
}

void AdminServer::addStatsProvider(std::string key,
                                   std::function<std::string()> fn) {
  requireNotStarted("addStatsProvider");
  stats_.emplace_back(std::move(key), std::move(fn));
}

void AdminServer::addReadiness(std::function<bool()> ready) {
  addReadiness("hook" + std::to_string(readiness_.size()), std::move(ready));
}

void AdminServer::addReadiness(std::string name, std::function<bool()> ready) {
  requireNotStarted("addReadiness");
  readiness_.emplace_back(std::move(name), std::move(ready));
}

void AdminServer::start() {
  started_ = std::chrono::steady_clock::now();
  http_.start();
}

void AdminServer::stop() { http_.stop(); }

net::HttpResponse AdminServer::handleHealthz(const net::HttpRequest&) {
  return net::HttpResponse::text(200, "ok\n");
}

net::HttpResponse AdminServer::handleMetrics(const net::HttpRequest&) {
  uptime_->set(std::chrono::duration_cast<std::chrono::seconds>(
                   std::chrono::steady_clock::now() - started_)
                   .count());
  std::string out;
  for (const auto& reg : registries_) out += reg->renderPrometheus();
  out += self_->renderPrometheus();
  net::HttpResponse res;
  res.contentType = kPromContentType;
  res.body = std::move(out);
  return res;
}

net::HttpResponse AdminServer::handleStatsz(const net::HttpRequest&) {
  JsonWriter w;
  w.beginObject().field(
      "uptimeSeconds", std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - started_)
                           .count());
  for (const auto& [key, fn] : stats_) {
    w.key(key);
    try {
      w.raw(fn());
    } catch (const std::exception& e) {
      w.beginObject().field("error", e.what()).endObject();
    } catch (...) {
      w.beginObject().field("error", "unknown").endObject();
    }
  }
  if (slo_) w.key("slo").raw(slo_->sampleAndJson());
  if (modelStats_) {
    w.key("model").raw(modelStats_->toJson(kModelzLimit));
    if (drift_) w.key("modelDrift").raw(drift_->sampleAndJson());
  }
  w.endObject().raw("\n");
  return net::HttpResponse::json(w.str());
}

net::HttpResponse AdminServer::handleReadyz(const net::HttpRequest& req) {
  bool allReady = true;
  std::vector<std::pair<const std::string*, bool>> hooks;
  hooks.reserve(readiness_.size());
  for (const auto& [name, ready] : readiness_) {
    const bool ok = ready();
    allReady = allReady && ok;
    hooks.emplace_back(&name, ok);
  }
  const int status = allReady ? 200 : 503;
  if (!req.queryParam("degraded"))
    return net::HttpResponse::text(status, allReady ? "ready\n" : "unready\n");
  // Detail view: same status code, JSON body naming each hook plus the
  // SLO burn-rate status when a tracker is mounted — "is it up" and "is
  // it healthy enough" in one scrape.
  JsonWriter w;
  w.beginObject().field("ready", allReady).key("hooks").beginArray();
  for (const auto& [name, ok] : hooks)
    w.beginObject().field("name", *name).field("ready", ok).endObject();
  w.endArray();
  if (slo_ || drift_) {
    // Degraded = any mounted health signal firing: an SLO burn or a
    // drifted model cluster. With only an SLO mounted the body is
    // byte-identical to the pre-drift format.
    SloTracker::Status st;
    DriftScorer::Status dst;
    if (slo_) st = slo_->sampleAndStatus();
    if (drift_) dst = drift_->sampleAndStatus();
    w.field("degraded", st.degraded || dst.anyDrifted);
    if (slo_) w.key("slo").raw(slo_->toJson(st));
    if (drift_) w.key("modelDrift").raw(drift_->toJson(dst));
  }
  w.endObject().raw("\n");
  net::HttpResponse res = net::HttpResponse::json(w.str());
  res.status = status;
  return res;
}

net::HttpResponse AdminServer::handleSloz(const net::HttpRequest&) {
  if (!slo_)
    return net::HttpResponse::json("{\"enabled\": false}\n");
  JsonWriter w;
  w.beginObject().field("enabled", true).key("slo").raw(slo_->sampleAndJson());
  w.endObject().raw("\n");
  return net::HttpResponse::json(w.str());
}

net::HttpResponse AdminServer::handleModelz(const net::HttpRequest& req) {
  std::size_t limit = kModelzLimit;
  std::string err;
  if (!parseLimitParam(req, limit, err)) return badRequest(err);
  if (!modelStats_)
    return net::HttpResponse::json("{\"enabled\": false}\n");
  const std::optional<std::string> cluster = req.queryParam("cluster");
  if (cluster) {
    const std::vector<std::string>& names = modelStats_->clusterNames();
    if (std::find(names.begin(), names.end(), *cluster) == names.end())
      return badRequest("unknown cluster for 'cluster': " + *cluster);
  }
  JsonWriter w;
  w.beginObject().field("enabled", true);
  w.key("model").raw(modelStats_->toJson(limit, cluster.value_or("")));
  if (drift_) w.key("drift").raw(drift_->sampleAndJson());
  w.endObject().raw("\n");
  return net::HttpResponse::json(w.str());
}

net::HttpResponse AdminServer::handleLogz(const net::HttpRequest& req) {
  std::size_t limit = kLogzLimit;
  std::optional<TraceId> traceFilter;
  std::string err;
  if (!parseLimitParam(req, limit, err) ||
      !parseTraceParam(req, traceFilter, err))
    return badRequest(err);
  LogLevel levelFloor = LogLevel::kTrace;
  if (const std::optional<std::string> raw = req.queryParam("level")) {
    if (!parseLogLevel(*raw, levelFloor))
      return badRequest("bad log level for 'level': " + *raw);
  }
  net::HttpResponse res;
  res.contentType = "application/x-ndjson";
  if (!log_) {
    res.body =
        "{\"enabled\": false, \"recordCount\": 0, \"returnedRecords\": 0}\n";
    return res;
  }
  std::uint64_t dropped = 0;
  std::vector<LogRecorder::SnapshotRecord> records = log_->snapshot(&dropped);
  const std::size_t total = records.size();
  keepNewest(
      records, limit,
      [&](const LogRecorder::SnapshotRecord& sr) {
        return int(sr.record.level) >= int(levelFloor) &&
               (!traceFilter || sr.record.trace == *traceFilter);
      },
      [](const LogRecorder::SnapshotRecord& sr) { return sr.record.tsNs; });
  // Meta line first, then one JSON object per record: every line parses
  // on its own (JSON lines), and the meta carries the snapshot counters.
  JsonWriter w;
  w.beginObject().field("enabled", true).field("recordCount", total);
  w.field("returnedRecords", records.size()).field("droppedRecords", dropped);
  w.field("minLevel", toString(log_->minLevel()));
  if (traceFilter) w.field("trace", formatTraceId(*traceFilter));
  w.endObject().raw("\n");
  for (const LogRecorder::SnapshotRecord& sr : records) {
    log_->appendRecordJson(w, sr);
    w.raw("\n");
  }
  res.body = w.str();
  return res;
}

net::HttpResponse AdminServer::handleTracez(const net::HttpRequest& req) {
  std::size_t limit = kTracezLimit;
  std::optional<TraceId> traceFilter;
  std::string err;
  if (!parseLimitParam(req, limit, err) ||
      !parseTraceParam(req, traceFilter, err))
    return badRequest(err);
  if (!tracer_)
    return net::HttpResponse::json("{\"enabled\": false, \"spans\": []}\n");
  // Non-destructive and race-free: snapshot() copies the per-thread rings
  // while recording continues. Every returned span is whole; one
  // overwritten mid-copy is counted in `dropped`, from the same cut.
  std::uint64_t dropped = 0;
  std::vector<TraceRecorder::SnapshotEvent> events =
      tracer_->snapshot(&dropped);
  const std::vector<std::string> names = tracer_->threadNames();
  const std::size_t total = events.size();
  keepNewest(
      events, limit,
      [&](const TraceRecorder::SnapshotEvent& se) {
        return !traceFilter || se.event.trace == *traceFilter;
      },
      [](const TraceRecorder::SnapshotEvent& se) {
        return se.event.tsNs + se.event.durNs;
      });
  JsonWriter w;
  w.beginObject().field("enabled", true).field("spanCount", total);
  w.field("returnedSpans", events.size()).field("droppedEvents", dropped);
  if (traceFilter) w.field("trace", formatTraceId(*traceFilter));
  w.key("threads").beginArray();
  for (std::size_t tid = 0; tid < names.size(); ++tid)
    w.beginObject().field("tid", tid).field("name", names[tid]).endObject();
  w.endArray().key("spans").beginArray(true);
  for (const TraceRecorder::SnapshotEvent& se : events) {
    const TraceRecorder::Event& e = se.event;
    w.beginObject().field("tid", se.tid).field("name", e.name);
    w.field("cat", e.cat).field("tsNs", e.tsNs).field("durNs", e.durNs);
    if (e.trace.valid()) w.field("trace", formatTraceId(e.trace));
    if (e.a0.key != nullptr || e.s0.key != nullptr) {
      w.key("args").beginObject();
      appendArgsJson(w, e.a0, e.a1, e.s0);
      w.endObject();
    }
    w.endObject();
  }
  w.endArray().endObject().raw("\n");
  return net::HttpResponse::json(w.str());
}

}  // namespace hsd::obs
