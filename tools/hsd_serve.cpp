// CLI: drive the async serving front end — feed N concurrent evaluation
// requests of a layout through a DetectionServer and print one aggregate
// SERVE_STATS JSON line (throughput, per-outcome request counts, shared
// stage-cache hit rate, cross-request report identity, and the model
// fingerprint as "model").
//
//   hsd_serve <model> <layout.gds> [--requests N] [--workers W]
//             [--contexts C] [--threads T] [--deadline-ms D] [--no-cache]
//             [--tile-size S] [--halo H] [--tile-threads K]
//             [--trace-out trace.json] [--metrics-out metrics.prom]
//             [--admin-port P] [--linger-ms L] [--port P]
//             [--max-body-mb M] [--max-queue-depth Q]
//             [--log-out log.jsonl] [--log-level trace|debug|info|warn|error]
//             [--model-stats-out model.json]
//
// --port P opens the detection wire plane (serve::DetectionEndpoint):
// POST /detect on 127.0.0.1:P accepts a layout body and returns the
// report — P = 0 picks an ephemeral port, printed as one "DETECT_PORT
// <port>" line. --max-body-mb caps uploads (413 beyond), and
// --max-queue-depth bounds admission (429 + Retry-After at the bound).
// --requests 0 with --port turns the process into a pure wire server
// for the linger window: no in-process batch, all traffic over HTTP.
//
// --tile-size S makes every request a *tiled* evaluation: the worker
// fans the request's tiles across idle pooled contexts (non-blocking
// borrow, so fan-out can never deadlock the pool) and merges the
// per-tile hits deterministically — reportsIdentical must stay true, and
// repeated requests hit the shared cache tile by tile. --halo/
// --tile-threads as in hsd_detect. --workers, --contexts and --threads
// must be whole numbers in [0, 1024], --requests one in [0, 2^20],
// --max-queue-depth and the tiling flags whole numbers in [0, 2^53],
// --max-body-mb one below 2^44 (so the byte count fits 64 bits) and
// --port/--admin-port, when given, whole numbers in [0, 65535], and
// --deadline-ms/--linger-ms finite numbers; anything else exits 2 naming
// the flag. An undersized --halo exits 2 right after the model load,
// before the layout is read.
//
// With --deadline-ms, requests whose deadline expires resolve to a typed
// timeout result (counted under "timeout") — the process never crashes on
// an expired request. Repeated submissions of one layout are the serving
// cache's best case: every request after the first should hit the shared
// verdict/screen entries ("cache" counters in the JSON).
//
// --admin-port P starts the embedded HTTP admin server (obs::AdminServer)
// on 127.0.0.1:P — P = 0 picks an ephemeral port, printed as one
// "ADMIN_PORT <port>" line so scripts can scrape it. Endpoints: /metrics
// (Prometheus), /healthz, /readyz (flips unready when the drain starts),
// /statsz (live SERVE_STATS JSON), /tracez (recent spans). --linger-ms
// keeps the process (and admin server) alive that long after the batch
// finishes, so external scrapers get a ready window; a signal cuts the
// linger short.
//
// SIGINT/SIGTERM trigger a graceful drain: stop accepting, finish every
// queued and in-flight request, then print SERVE_STATS and flush
// --trace-out/--metrics-out before exiting — an interrupted run loses
// neither file.
//
// --trace-out records the whole serving run (named worker threads, one
// queued + one run span per request, per-batch stage spans, cache-lookup
// spans) as Chrome trace-event JSON for Perfetto. --metrics-out writes the
// server's Prometheus text exposition after shutdown.
//
// --log-out writes the structured log ring (obs::LogRecorder) as JSON
// lines at exit; --log-level sets the recording floor (default info).
// The recorder also backs the admin /logz endpoint when --admin-port is
// given — like /tracez, it works without any output file. The server's
// built-in SLO tracker is always mounted on /sloz (and the "slo"
// sections of /statsz and /readyz?degraded).
//
// --model-stats-out enables the model-quality plane (per-cluster SVM
// margin sketches, verdict counters, low-margin captures) and writes the
// JSON dump at exit; with --admin-port the recorder also backs the admin
// /modelz endpoint (and the "model" section of /statsz), which works
// without any output file. When the model carries a drift baseline, the
// per-cluster PSI drift report joins /modelz, /readyz?degraded and the
// dump.
#include <csignal>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "args.hpp"
#include "core/evaluator.hpp"
#include "gds/gdsii.hpp"
#include "net/http.hpp"
#include "obs/admin.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/detect_endpoint.hpp"
#include "serve/server.hpp"

using namespace hsd::tools;

namespace {

volatile std::sig_atomic_t g_signal = 0;

extern "C" void onSignal(int sig) { g_signal = sig; }

void installSignalHandlers() {
  struct sigaction sa{};
  sa.sa_handler = &onSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking waits see the interruption
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// The port `flag` names when it is given: a whole number in [0, 65535]
/// (throws std::invalid_argument naming `name` otherwise).
std::optional<std::uint16_t> argPort(int argc, char** argv, const char* flag,
                                     const char* name) {
  if (!hasFlag(argc, argv, flag)) return std::nullopt;
  return std::uint16_t(
      hsd::engine::wholeNumber(name, argDouble(argc, argv, flag, -1.0), 65535));
}

/// Sleep in short slices until `ms` elapse or a signal lands.
void interruptibleSleepMs(double ms) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
  while (g_signal == 0 && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hsd;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <model> <layout.gds> [--requests N] "
                 "[--workers W] [--contexts C] [--threads T] "
                 "[--deadline-ms D] [--no-cache] [--tile-size S] "
                 "[--halo H] [--tile-threads K] [--trace-out f.json] "
                 "[--metrics-out f.prom] [--admin-port P] [--linger-ms L] "
                 "[--port P] [--max-body-mb M] [--max-queue-depth Q] "
                 "[--log-out f.jsonl] [--log-level L] "
                 "[--model-stats-out F]\n",
                 argv[0]);
    return 2;
  }
  // Numbers are checked before any work: text that is not a number is a
  // usage error naming its flag, and so is a fraction, a negative or an
  // overflowing value where a count or a coordinate is due — never a
  // silent zero, a truncation or an absurd thread request.
  serve::ServerConfig cfg;
  core::EvalParams ep;
  std::size_t requests = 0;
  serve::DetectEndpointConfig dcfg;
  std::size_t maxBodyBytes = 0;
  std::optional<std::uint16_t> detectPort, adminPort;
  double deadlineMs = 0.0, lingerMs = 0.0;
  try {
    deadlineMs = argDouble(argc, argv, "--deadline-ms", 0.0);
    lingerMs = argDouble(argc, argv, "--linger-ms", 0.0);
    constexpr double kMax = engine::RunContext::kMaxThreads;
    // The batch holds every request's future and result until it ends.
    requests = engine::wholeNumber(
        "requests", argDouble(argc, argv, "--requests", 8), 1 << 20);
    dcfg.maxQueueDepth = engine::wholeNumber(
        "max-queue-depth", argDouble(argc, argv, "--max-queue-depth", 64),
        engine::kMaxExactWhole);
    maxBodyBytes = engine::wholeNumber(
                       "max-body-mb", argDouble(argc, argv, "--max-body-mb", 64),
                       double(SIZE_MAX >> 20))
                   << 20;
    detectPort = argPort(argc, argv, "--port", "port");
    adminPort = argPort(argc, argv, "--admin-port", "admin-port");
    cfg.workers =
        engine::wholeNumber("workers", argDouble(argc, argv, "--workers", 4),
                            kMax);
    cfg.contexts = engine::wholeNumber(
        "contexts", argDouble(argc, argv, "--contexts", 0), kMax);
    cfg.threadsPerContext = engine::wholeNumber(
        "threads", argDouble(argc, argv, "--threads", 2), kMax);
    ep.tiling = engine::makeTilingParams(
        argDouble(argc, argv, "--tile-size", 0.0),
        argDouble(argc, argv, "--halo", 0.0),
        argDouble(argc, argv, "--tile-threads", 0.0));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    std::ifstream ms(argv[1]);
    if (!ms) {
      std::fprintf(stderr, "error: cannot open model %s\n", argv[1]);
      return 1;
    }
    const core::Detector det = core::Detector::load(ms);
    const std::uint64_t modelFingerprint = det.fingerprint();
    // The tile plan's halo floor depends on the model's clip size: check
    // it now, before reading the layout.
    try {
      engine::checkTilePlan(ep.tiling, det.params.clip);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    const Layout layout = gds::readGdsiiFile(argv[2]);

    cfg.enableCache = !hasFlag(argc, argv, "--no-cache");
    const char* traceOut = argString(argc, argv, "--trace-out", nullptr);
    const char* metricsOut = argString(argc, argv, "--metrics-out", nullptr);
    const bool adminEnabled = adminPort.has_value();
    // The admin /tracez endpoint needs a recorder even when no trace file
    // was requested; the file is still written only with --trace-out.
    if (traceOut != nullptr || adminEnabled) {
      cfg.tracer = std::make_shared<hsd::obs::TraceRecorder>();
      cfg.tracer->nameThread("hsd_serve-main");
    }
    // Structured logging mirrors the tracer's lifecycle: a --log-out file
    // or a mounted admin /logz both need the recorder.
    const char* logOut = argString(argc, argv, "--log-out", nullptr);
    if (logOut != nullptr || adminEnabled) {
      cfg.log = std::make_shared<hsd::obs::LogRecorder>();
      if (const char* lvl = argString(argc, argv, "--log-level", nullptr)) {
        hsd::obs::LogLevel parsed;
        if (!hsd::obs::parseLogLevel(lvl, parsed)) {
          std::fprintf(stderr, "error: bad --log-level '%s'\n", lvl);
          return 2;
        }
        cfg.log->setMinLevel(parsed);
      }
    }
    // Model-quality plane mirrors the tracer/log lifecycle: a
    // --model-stats-out file or a mounted admin /modelz both need the
    // recorder; the file is written only when the flag was given.
    const char* modelStatsOut =
        argString(argc, argv, "--model-stats-out", nullptr);
    std::shared_ptr<obs::DriftScorer> drift;
    if (modelStatsOut != nullptr || adminEnabled) {
      obs::ModelStatsRecorder::Options opts;
      opts.modelFingerprint = modelFingerprint;
      cfg.modelStats =
          std::make_shared<obs::ModelStatsRecorder>(det.clusterNames(), opts);
      if (det.hasBaseline) {
        drift = std::make_shared<obs::DriftScorer>(det.baseline);
        drift->setSource(cfg.modelStats);
      }
    }

    installSignalHandlers();

    ep.extract.clip = det.params.clip;
    ep.removal.clip = det.params.clip;

    serve::DetectionServer server(cfg);

    // Detection wire plane: POST /detect bridged to server.submit().
    std::unique_ptr<serve::DetectionEndpoint> endpoint;
    std::unique_ptr<net::HttpServer> detectHttp;
    if (detectPort) {
      endpoint = std::make_unique<serve::DetectionEndpoint>(server, det, dcfg);
      net::HttpServerOptions ho;
      ho.port = *detectPort;
      ho.maxBodyBytes = maxBodyBytes;
      // Enough handler threads that the wire never starves the workers;
      // surplus requests queue in the transport's bounded accept queue.
      ho.handlerThreads = cfg.workers + 2;
      ho.ioTimeoutMs = 10000;
      detectHttp = std::make_unique<net::HttpServer>(ho);
      endpoint->mount(*detectHttp);
      detectHttp->start();
      std::printf("DETECT_PORT %u\n", unsigned(detectHttp->port()));
      std::fflush(stdout);
    }

    std::unique_ptr<obs::AdminServer> admin;
    if (adminEnabled) {
      admin = std::make_unique<obs::AdminServer>(
          obs::AdminOptions{.port = *adminPort});
      admin->addMetrics(server.metrics());
      if (endpoint) admin->addMetrics(endpoint->metrics());
      admin->setTracer(cfg.tracer);
      admin->setLog(cfg.log);
      admin->setSlo(server.slo());
      admin->setModelStats(cfg.modelStats);
      admin->setDrift(drift);
      admin->addStatsProvider("serve",
                              [&server] { return server.statsJson(); });
      if (endpoint)
        admin->addStatsProvider(
            "detect", [ep = endpoint.get()] { return ep->statsJson(); });
      admin->addReadiness("serve-accepting",
                          [&server] { return server.accepting(); });
      admin->start();
      // One greppable line; flushed so a pipe/file reader sees it while
      // the batch is still running.
      std::printf("ADMIN_PORT %u\n", unsigned(admin->port()));
      std::fflush(stdout);
    }

    std::optional<std::chrono::steady_clock::duration> timeout;
    if (deadlineMs > 0.0)
      timeout = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(deadlineMs));

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<serve::ServeResult>> futs;
    futs.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i)
      futs.push_back(server.submit(det, layout, ep, timeout));

    // Signal-aware wait: a SIGINT/SIGTERM here starts the graceful drain
    // (stop accepting, finish queued + in-flight) instead of killing the
    // run with its stats and trace unwritten.
    bool interrupted = false;
    for (const auto& f : futs) {
      while (f.wait_for(std::chrono::milliseconds(50)) !=
             std::future_status::ready) {
        if (g_signal != 0) {
          interrupted = true;
          break;
        }
      }
      if (interrupted) break;
    }
    if (interrupted) {
      std::fprintf(stderr,
                   "hsd_serve: signal %d: draining (finishing queued and "
                   "in-flight requests)\n",
                   int(g_signal));
      // Wire plane first: its in-flight handlers block on detection
      // futures that only resolve while the DetectionServer workers are
      // still running — the reverse order would deadlock the drain.
      if (detectHttp) detectHttp->stop();
      server.shutdown();  // drains; every future below is resolved
    }

    std::vector<serve::ServeResult> results;
    results.reserve(requests);
    for (auto& f : futs) results.push_back(f.get());
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    // Concurrent submissions of one layout must agree byte-for-byte; any
    // divergence would mean the shared cache or context reuse leaks state.
    bool identical = true;
    const serve::ServeResult* first = nullptr;
    for (const serve::ServeResult& r : results) {
      if (!r.ok()) continue;
      if (first == nullptr) {
        first = &r;
        continue;
      }
      if (r.result.reported != first->result.reported ||
          r.result.candidateClips != first->result.candidateClips)
        identical = false;
    }

    // Scrape window: the server stays up (readyz "ready", live /metrics,
    // /statsz, /tracez) until the linger elapses or a signal arrives.
    if (!interrupted && lingerMs > 0.0) interruptibleSleepMs(lingerMs);

    // Same drain order as the signal path: stop the wire listener (its
    // in-flight POSTs finish and get their responses), then the workers.
    if (detectHttp) detectHttp->stop();
    server.shutdown();  // idempotent when the drain already ran
    obs::JsonWriter stats;
    stats.beginObject().field("layout", layout.name());
    stats.field("requests", requests).field("wallSeconds", wall);
    stats.field("throughputRps",
                wall > 0.0 ? double(results.size()) / wall : 0.0);
    stats.field("reportsIdentical", identical);
    stats.field("interrupted", interrupted);
    stats.key("server").raw(server.statsJson());
    stats.field("model", obs::hex64(modelFingerprint)).endObject();
    std::printf("SERVE_STATS %s\n", stats.str().c_str());
    std::fflush(stdout);
    if (cfg.tracer && traceOut != nullptr) {
      std::ofstream ts(traceOut);
      if (!ts) {
        std::fprintf(stderr, "error: cannot open trace file %s\n", traceOut);
        return 1;
      }
      cfg.tracer->writeJson(ts);
      std::printf("trace: %zu spans (%llu dropped) -> %s\n",
                  cfg.tracer->spanCount(),
                  static_cast<unsigned long long>(cfg.tracer->droppedEvents()),
                  traceOut);
    }
    if (metricsOut != nullptr) {
      std::ofstream ms2(metricsOut);
      if (!ms2) {
        std::fprintf(stderr, "error: cannot open metrics file %s\n",
                     metricsOut);
        return 1;
      }
      ms2 << server.renderPrometheus();
      std::printf("metrics: -> %s\n", metricsOut);
    }
    if (cfg.log && logOut != nullptr) {
      std::ofstream ls(logOut);
      if (!ls) {
        std::fprintf(stderr, "error: cannot open log file %s\n", logOut);
        return 1;
      }
      cfg.log->writeJsonLines(ls);
      std::printf("log: %zu records (%llu dropped) -> %s\n",
                  cfg.log->recordCount(),
                  static_cast<unsigned long long>(cfg.log->droppedRecords()),
                  logOut);
    }
    if (cfg.modelStats && modelStatsOut != nullptr) {
      std::ofstream out(modelStatsOut);
      if (!out) {
        std::fprintf(stderr, "error: cannot open model stats file %s\n",
                     modelStatsOut);
        return 1;
      }
      obs::JsonWriter w;
      w.beginObject().key("model").raw(cfg.modelStats->toJson());
      if (drift) w.key("drift").raw(drift->sampleAndJson());
      out << w.endObject().str() << '\n';
      std::printf("model stats: %zu clusters -> %s\n",
                  cfg.modelStats->numSlots(), modelStatsOut);
    }
    if (admin) admin->stop();
    return identical ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
