#include "obs/admin.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <locale>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/json.hpp"

namespace hsd::obs {

namespace {

enum ScrapeIndex {
  kMetrics = 0,
  kStatsz = 1,
  kTracez = 2,
  kHealthz = 3,
  kReadyz = 4,
  kLogz = 5,
  kSloz = 6,
  kModelz = 7,
};

constexpr const char* kPromContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/// Shared ?limit= parsing for the snapshot endpoints (/tracez, /logz):
/// absent keeps `out` at its default and succeeds; anything but a
/// positive integer fails with a message for the 400 body. No silent
/// defaulting on junk.
bool parseLimitParam(const net::HttpRequest& req, std::size_t& out,
                     std::string& err) {
  const std::string raw = req.queryParam("limit");
  if (raw.empty()) return true;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0' || v == 0 ||
      !std::isdigit(static_cast<unsigned char>(raw[0]))) {
    err = "bad numeric value for 'limit': " + raw;
    return false;
  }
  out = std::size_t(std::min<unsigned long long>(v, 1u << 20));
  return true;
}

/// Shared ?trace= parsing: absent leaves `has` false; a present value
/// must be a 32-hex trace id.
bool parseTraceParam(const net::HttpRequest& req, TraceId& out, bool& has,
                     std::string& err) {
  const std::string raw = req.queryParam("trace");
  if (raw.empty()) return true;
  if (!parseTraceId(raw, out)) {
    err = "bad trace id for 'trace' (want 32 hex chars): " + raw;
    return false;
  }
  has = true;
  return true;
}

/// True when `key` appears in the query string as a key (bare or with a
/// value) — HttpRequest::queryParam can't distinguish `?degraded` from
/// no query at all.
bool hasQueryKey(const net::HttpRequest& req, std::string_view key) {
  std::string_view q = req.query;
  while (!q.empty()) {
    const std::size_t amp = q.find('&');
    std::string_view part = q.substr(0, amp);
    const std::size_t eq = part.find('=');
    if (part.substr(0, eq) == key) return true;
    if (amp == std::string_view::npos) break;
    q.remove_prefix(amp + 1);
  }
  return false;
}

net::HttpResponse badRequest(const std::string& detail) {
  return net::HttpResponse::text(400, "Bad Request: " + detail + "\n");
}

}  // namespace

AdminServer::AdminServer(AdminOptions opts)
    : opts_(opts),
      http_([&opts] {
        net::HttpServerOptions h;
        h.port = opts.port;
        h.bindAddress = opts.bindAddress;
        h.handlerThreads = opts.handlerThreads;
        return h;
      }()),
      self_(std::make_shared<MetricsRegistry>()) {
  // Registration order is exposition order — keep it stable.
  uptime_ = &self_->gauge("hsd_admin_uptime_seconds",
                          "Whole seconds since the admin server started");
  const std::pair<int, const char*> endpoints[] = {
      {kMetrics, "/metrics"}, {kStatsz, "/statsz"},  {kTracez, "/tracez"},
      {kHealthz, "/healthz"}, {kReadyz, "/readyz"},  {kLogz, "/logz"},
      {kSloz, "/sloz"},       {kModelz, "/modelz"}};
  for (const auto& [idx, endpoint] : endpoints)
    scrapes_[idx] = &self_->counter("hsd_admin_scrapes_total",
                                    "Admin endpoint hits by endpoint",
                                    {{"endpoint", endpoint}});

  http_.handle("/", [this](const net::HttpRequest&) {
    std::string body = "openhsd admin server\nendpoints:\n";
    for (const std::string& r : http_.routes()) body += "  " + r + "\n";
    return net::HttpResponse::text(200, std::move(body));
  });
  http_.handle("/healthz", [this](const net::HttpRequest&) {
    scrapes_[kHealthz]->inc();
    return net::HttpResponse::text(200, "ok\n");
  });
  http_.handle("/readyz",
               [this](const net::HttpRequest& req) { return handleReadyz(req); });
  http_.handle("/metrics",
               [this](const net::HttpRequest& req) { return handleMetrics(req); });
  http_.handle("/statsz",
               [this](const net::HttpRequest& req) { return handleStatsz(req); });
  http_.handle("/tracez",
               [this](const net::HttpRequest& req) { return handleTracez(req); });
  http_.handle("/logz",
               [this](const net::HttpRequest& req) { return handleLogz(req); });
  http_.handle("/sloz",
               [this](const net::HttpRequest& req) { return handleSloz(req); });
  http_.handle("/modelz",
               [this](const net::HttpRequest& req) { return handleModelz(req); });
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

net::HttpResponse AdminServer::handleMetrics(const net::HttpRequest&) {
  scrapes_[kMetrics]->inc();
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
  scrapes_[kStatsz]->inc();
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(3);
  os << std::fixed << "{\"uptimeSeconds\": "
     << std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
  for (const auto& [key, fn] : stats_) {
    os << ", \"" << jsonEscape(key) << "\": ";
    try {
      os << fn();
    } catch (const std::exception& e) {
      os << "{\"error\": \"" << jsonEscape(e.what()) << "\"}";
    } catch (...) {
      os << "{\"error\": \"unknown\"}";
    }
  }
  if (slo_) os << ", \"slo\": " << slo_->sampleAndJson();
  if (modelStats_) {
    os << ", \"model\": " << modelStats_->toJson(opts_.modelzDefaultLimit);
    if (drift_) os << ", \"modelDrift\": " << drift_->sampleAndJson();
  }
  os << "}\n";
  return net::HttpResponse::json(os.str());
}

net::HttpResponse AdminServer::handleReadyz(const net::HttpRequest& req) {
  scrapes_[kReadyz]->inc();
  bool allReady = true;
  std::vector<std::pair<const std::string*, bool>> hooks;
  hooks.reserve(readiness_.size());
  for (const auto& [name, ready] : readiness_) {
    const bool ok = ready();
    allReady = allReady && ok;
    hooks.emplace_back(&name, ok);
  }
  const int status = allReady ? 200 : 503;
  if (!hasQueryKey(req, "degraded"))
    return net::HttpResponse::text(status, allReady ? "ready\n" : "unready\n");
  // Detail view: same status code, JSON body naming each hook plus the
  // SLO burn-rate status when a tracker is mounted — "is it up" and "is
  // it healthy enough" in one scrape.
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\"ready\": " << (allReady ? "true" : "false") << ", \"hooks\": [";
  bool first = true;
  for (const auto& [name, ok] : hooks) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << jsonEscape(*name)
       << "\", \"ready\": " << (ok ? "true" : "false") << "}";
  }
  os << "]";
  if (slo_ || drift_) {
    // Degraded = any mounted health signal firing: an SLO burn or a
    // drifted model cluster. With only an SLO mounted the body is
    // byte-identical to the pre-drift format.
    bool degraded = false;
    std::string detail;
    if (slo_) {
      const SloTracker::Status st = slo_->sampleAndStatus();
      degraded = degraded || st.degraded;
      detail += ", \"slo\": " + slo_->toJson(st);
    }
    if (drift_) {
      const DriftScorer::Status dst = drift_->sampleAndStatus();
      degraded = degraded || dst.anyDrifted;
      detail += ", \"modelDrift\": " + drift_->toJson(dst);
    }
    os << ", \"degraded\": " << (degraded ? "true" : "false") << detail;
  }
  os << "}\n";
  net::HttpResponse res = net::HttpResponse::json(os.str());
  res.status = status;
  return res;
}

net::HttpResponse AdminServer::handleSloz(const net::HttpRequest&) {
  scrapes_[kSloz]->inc();
  if (!slo_)
    return net::HttpResponse::json("{\"enabled\": false}\n");
  std::string body = "{\"enabled\": true, \"slo\": ";
  body += slo_->sampleAndJson();
  body += "}\n";
  return net::HttpResponse::json(std::move(body));
}

net::HttpResponse AdminServer::handleModelz(const net::HttpRequest& req) {
  scrapes_[kModelz]->inc();
  std::size_t limit = opts_.modelzDefaultLimit;
  std::string err;
  if (!parseLimitParam(req, limit, err)) return badRequest(err);
  if (!modelStats_)
    return net::HttpResponse::json("{\"enabled\": false}\n");
  std::string cluster;
  if (hasQueryKey(req, "cluster")) {
    cluster = req.queryParam("cluster");
    const std::vector<std::string>& names = modelStats_->clusterNames();
    if (std::find(names.begin(), names.end(), cluster) == names.end())
      return badRequest("unknown cluster for 'cluster': " + cluster);
  }
  std::string body = "{\"enabled\": true, \"model\": ";
  body += modelStats_->toJson(limit, cluster);
  if (drift_) {
    body += ", \"drift\": ";
    body += drift_->sampleAndJson();
  }
  body += "}\n";
  return net::HttpResponse::json(std::move(body));
}

net::HttpResponse AdminServer::handleLogz(const net::HttpRequest& req) {
  scrapes_[kLogz]->inc();
  std::size_t limit = opts_.logzDefaultLimit;
  TraceId traceFilter;
  bool hasTrace = false;
  std::string err;
  if (!parseLimitParam(req, limit, err) ||
      !parseTraceParam(req, traceFilter, hasTrace, err))
    return badRequest(err);
  LogLevel levelFloor = LogLevel::kTrace;
  if (const std::string raw = req.queryParam("level"); !raw.empty()) {
    if (!parseLogLevel(raw, levelFloor))
      return badRequest("bad log level for 'level': " + raw);
  }
  std::ostringstream os;
  os.imbue(std::locale::classic());
  if (!log_) {
    os << "{\"enabled\": false, \"recordCount\": 0, \"returnedRecords\": 0}\n";
    net::HttpResponse res;
    res.contentType = "application/x-ndjson";
    res.body = os.str();
    return res;
  }
  std::uint64_t dropped = 0;
  std::vector<LogRecorder::SnapshotRecord> records = log_->snapshot(&dropped);
  const std::size_t total = records.size();
  records.erase(std::remove_if(records.begin(), records.end(),
                               [&](const LogRecorder::SnapshotRecord& sr) {
                                 if (int(sr.record.level) < int(levelFloor))
                                   return true;
                                 return hasTrace &&
                                        !(sr.record.trace == traceFilter);
                               }),
                records.end());
  // Most recent records win the cap; render survivors oldest-first.
  std::sort(records.begin(), records.end(),
            [](const LogRecorder::SnapshotRecord& a,
               const LogRecorder::SnapshotRecord& b) {
              return a.record.tsNs < b.record.tsNs;
            });
  if (records.size() > limit)
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(limit));
  // Meta line first, then one JSON object per record: every line parses
  // on its own (JSON lines), and the meta carries the snapshot counters.
  os << "{\"enabled\": true, \"recordCount\": " << total
     << ", \"returnedRecords\": " << records.size()
     << ", \"droppedRecords\": " << dropped
     << ", \"minLevel\": \"" << toString(log_->minLevel()) << '"';
  if (hasTrace) os << ", \"trace\": \"" << formatTraceId(traceFilter) << '"';
  os << "}\n";
  for (const LogRecorder::SnapshotRecord& sr : records) {
    log_->appendRecordJson(os, sr);
    os << '\n';
  }
  net::HttpResponse res;
  res.contentType = "application/x-ndjson";
  res.body = os.str();
  return res;
}

net::HttpResponse AdminServer::handleTracez(const net::HttpRequest& req) {
  scrapes_[kTracez]->inc();
  std::size_t limit = opts_.tracezDefaultLimit;
  TraceId traceFilter;
  bool hasTrace = false;
  std::string err;
  if (!parseLimitParam(req, limit, err) ||
      !parseTraceParam(req, traceFilter, hasTrace, err))
    return badRequest(err);
  std::ostringstream os;
  os.imbue(std::locale::classic());
  if (!tracer_) {
    os << "{\"enabled\": false, \"spans\": []}\n";
    return net::HttpResponse::json(os.str());
  }
  // Non-destructive and race-free: snapshot() copies the per-thread rings
  // while recording continues. Every returned span is whole; one
  // overwritten mid-copy is counted in `dropped`, from the same cut.
  std::uint64_t dropped = 0;
  std::vector<TraceRecorder::SnapshotEvent> events =
      tracer_->snapshot(&dropped);
  const std::vector<std::string> names = tracer_->threadNames();
  const std::size_t total = events.size();
  if (hasTrace)
    events.erase(std::remove_if(events.begin(), events.end(),
                                [&](const TraceRecorder::SnapshotEvent& se) {
                                  return !(se.event.trace == traceFilter);
                                }),
                 events.end());
  // Most recent spans win the cap; render the survivors oldest-first so
  // the JSON reads chronologically.
  std::sort(events.begin(), events.end(),
            [](const TraceRecorder::SnapshotEvent& a,
               const TraceRecorder::SnapshotEvent& b) {
              return a.event.tsNs + a.event.durNs <
                     b.event.tsNs + b.event.durNs;
            });
  if (events.size() > limit)
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(limit));
  os << "{\"enabled\": true, \"spanCount\": " << total
     << ", \"returnedSpans\": " << events.size()
     << ", \"droppedEvents\": " << dropped;
  if (hasTrace) os << ", \"trace\": \"" << formatTraceId(traceFilter) << '"';
  os << ", \"threads\": [";
  for (std::size_t tid = 0; tid < names.size(); ++tid) {
    if (tid != 0) os << ", ";
    os << "{\"tid\": " << tid << ", \"name\": \"" << jsonEscape(names[tid])
       << "\"}";
  }
  os << "], \"spans\": [";
  bool first = true;
  for (const TraceRecorder::SnapshotEvent& se : events) {
    if (!first) os << ",";
    first = false;
    const TraceRecorder::Event& e = se.event;
    os << "\n{\"tid\": " << se.tid << ", \"name\": \"" << jsonEscape(e.name)
       << "\", \"cat\": \"" << jsonEscape(e.cat) << "\", \"tsNs\": " << e.tsNs
       << ", \"durNs\": " << e.durNs;
    if (e.trace.valid())
      os << ", \"trace\": \"" << formatTraceId(e.trace) << '"';
    if (e.a0.key != nullptr || e.s0.key != nullptr) {
      os << ", \"args\": {";
      bool firstArg = true;
      appendArgsJson(os, e.a0, e.a1, e.s0, firstArg);
      os << '}';
    }
    os << '}';
  }
  os << "\n]}\n";
  return net::HttpResponse::json(os.str());
}

}  // namespace hsd::obs
