// Serving throughput: the async front end (src/serve) multiplexing
// concurrent evaluation requests over a RunContext pool with one shared
// StageCache. Two scenarios on one trained detector:
//
//   cold  — every request a distinct layout (no cross-request reuse);
//   warm  — every request the same layout (repeated IP block, the
//           cache's best case: all but the first request hit);
//   tiled — the warm scenario with tiled requests: each request fans its
//           tiles across the context pool (serve/server.hpp fan-out) and
//           must stay byte-identical to the untiled runs.
//
// Each scenario prints a SERVE_STATS JSON line (requests by outcome, wall
// seconds, throughput, shared-cache hit rate) for the perf tracker,
// mirroring the ENGINE_STATS lines of the table benches. With
// `--json-out BENCH_serve.json` the run also writes one machine-readable
// trajectory record (throughput, run-latency p50/p95/p99, cache hit
// rate, git describe) — the input of bench/run_benches.sh.
//
// Over-the-wire scenarios (POST /detect through net::HttpServer +
// serve::DetectionEndpoint, concurrent real-socket clients):
//
//   wire          — concurrent GDSII posts of the warm layout; end-to-end
//                   client-measured latency percentiles and throughput;
//   wire-overload — the same posts against a one-deep admission queue on
//                   a single slow worker: most requests must come back as
//                   typed 429s (the reported rate429), never hangs/resets.
//
// `--wire-json-out BENCH_wire.json` writes their trajectory record.
#include <algorithm>
#include <chrono>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "gds/gdsii.hpp"
#include "net/http.hpp"
#include "obs/json.hpp"
#include "serve/detect_endpoint.hpp"
#include "serve/server.hpp"

namespace {

struct ScenarioResult {
  std::string name;
  std::size_t requests = 0;
  std::size_t ok = 0;
  double wallSeconds = 0.0;
  double throughputRps = 0.0;
  double p50RunSeconds = 0.0;
  double p95RunSeconds = 0.0;
  double p99RunSeconds = 0.0;
  double cacheHitRate = 0.0;
  std::string serverStatsJson;
};

ScenarioResult runScenario(const char* name,
                           hsd::serve::DetectionServer& server,
                           const hsd::core::Detector& det,
                           const std::vector<const hsd::Layout*>& layouts,
                           const hsd::core::EvalParams& ep) {
  using namespace hsd;
  ScenarioResult out;
  out.name = name;
  out.requests = layouts.size();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<serve::ServeResult>> futs;
  futs.reserve(layouts.size());
  for (const Layout* l : layouts) futs.push_back(server.submit(det, *l, ep));
  for (auto& f : futs) out.ok += f.get().ok() ? 1 : 0;
  out.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.throughputRps =
      out.wallSeconds > 0.0 ? double(layouts.size()) / out.wallSeconds : 0.0;
  const obs::Histogram& run = server.runLatency();
  out.p50RunSeconds = run.quantile(0.50);
  out.p95RunSeconds = run.quantile(0.95);
  out.p99RunSeconds = run.quantile(0.99);
  const serve::DetectionServer::Stats stats = server.stats();
  const std::size_t lookups = stats.cache.hits + stats.cache.misses;
  out.cacheHitRate =
      lookups == 0 ? 0.0 : double(stats.cache.hits) / double(lookups);
  out.serverStatsJson = server.statsJson();

  std::printf("  %-5s %zu requests, %zu ok, %.2fs wall, %.2f req/s\n", name,
              out.requests, out.ok, out.wallSeconds, out.throughputRps);
  std::printf("  %-5s run latency p50 %.1fms  p95 %.1fms  p99 %.1fms\n", name,
              out.p50RunSeconds * 1e3, out.p95RunSeconds * 1e3,
              out.p99RunSeconds * 1e3);
  // statsJson() carries the same percentiles under "latency" for the
  // perf tracker.
  hsd::obs::JsonWriter w;
  w.beginObject().field("requests", out.requests);
  w.field("wallSeconds", out.wallSeconds);
  w.field("throughputRps", out.throughputRps);
  w.key("server").raw(out.serverStatsJson).endObject();
  std::printf("SERVE_STATS %s %s\n", name, w.str().c_str());
  return out;
}

std::string toJson(const std::vector<ScenarioResult>& scenarios) {
  hsd::obs::JsonWriter w = hsd::bench::benchJson("serve_throughput");
  w.key("scenarios").beginArray(true);
  for (const ScenarioResult& s : scenarios) {
    w.beginObject().field("name", s.name).field("requests", s.requests);
    w.field("ok", s.ok).field("wallSeconds", s.wallSeconds);
    w.field("throughputRps", s.throughputRps).key("runSeconds").beginObject();
    w.field("p50", s.p50RunSeconds).field("p95", s.p95RunSeconds);
    w.field("p99", s.p99RunSeconds).endObject();
    w.field("cacheHitRate", s.cacheHitRate);
    w.key("server").raw(s.serverStatsJson).endObject();
  }
  return w.endArray().endObject().str();
}

// --- Over-the-wire scenarios ----------------------------------------

struct WireResult {
  std::string name;
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t tooBusy = 0;  ///< typed 429 responses (all carried Retry-After)
  std::size_t failed = 0;   ///< any other status or transport error
  double wallSeconds = 0.0;
  double throughputRps = 0.0;
  double rate429 = 0.0;
  double p50Seconds = 0.0;  ///< client-measured, connect to full response
  double p95Seconds = 0.0;
  double p99Seconds = 0.0;
};

WireResult runWireScenario(const char* name, const hsd::core::Detector& det,
                           const std::string& gdsBody, std::size_t posters,
                           std::size_t perPoster,
                           const hsd::serve::ServerConfig& scfg,
                           std::size_t maxQueueDepth) {
  using namespace hsd;
  serve::DetectionServer server(scfg);
  serve::DetectEndpointConfig dcfg;
  dcfg.maxQueueDepth = maxQueueDepth;
  serve::DetectionEndpoint endpoint(server, det, dcfg);
  net::HttpServerOptions ho;
  ho.maxBodyBytes = 256 << 20;
  ho.handlerThreads = posters;
  net::HttpServer http(ho);
  endpoint.mount(http);
  http.start();

  WireResult out;
  out.name = name;
  out.requests = posters * perPoster;
  std::mutex mu;
  std::vector<double> latencies;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(posters);
  for (std::size_t p = 0; p < posters; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t i = 0; i < perPoster; ++i) {
        const auto r0 = std::chrono::steady_clock::now();
        try {
          const net::HttpResult res = net::httpPost(
              "127.0.0.1", http.port(), "/detect", gdsBody,
              "application/octet-stream", {}, 120000);
          const double sec = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - r0)
                                 .count();
          std::lock_guard<std::mutex> lock(mu);
          if (res.status == 200) {
            out.ok++;
            latencies.push_back(sec);
          } else if (res.status == 429 &&
                     res.header("retry-after") != nullptr) {
            out.tooBusy++;
          } else {
            out.failed++;
          }
        } catch (const std::exception&) {
          std::lock_guard<std::mutex> lock(mu);
          out.failed++;
        }
      }
      (void)p;
    });
  }
  for (std::thread& t : threads) t.join();
  out.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.throughputRps =
      out.wallSeconds > 0.0 ? double(out.requests) / out.wallSeconds : 0.0;
  out.rate429 =
      out.requests == 0 ? 0.0 : double(out.tooBusy) / double(out.requests);
  out.p50Seconds = bench::quantile(latencies, 0.50);
  out.p95Seconds = bench::quantile(latencies, 0.95);
  out.p99Seconds = bench::quantile(latencies, 0.99);

  http.stop();
  server.shutdown();

  std::printf("  %-13s %zu requests, %zu ok, %zu busy(429), %zu failed, "
              "%.2fs wall, %.2f req/s\n",
              name, out.requests, out.ok, out.tooBusy, out.failed,
              out.wallSeconds, out.throughputRps);
  std::printf("  %-13s wire latency p50 %.1fms  p95 %.1fms  p99 %.1fms  "
              "429 rate %.0f%%\n",
              name, out.p50Seconds * 1e3, out.p95Seconds * 1e3,
              out.p99Seconds * 1e3, out.rate429 * 100.0);
  return out;
}

std::string wireToJson(const std::vector<WireResult>& scenarios) {
  hsd::obs::JsonWriter w = hsd::bench::benchJson("serve_throughput_wire");
  w.key("scenarios").beginArray(true);
  for (const WireResult& s : scenarios) {
    w.beginObject().field("name", s.name).field("requests", s.requests);
    w.field("ok", s.ok).field("tooBusy", s.tooBusy).field("failed", s.failed);
    w.field("wallSeconds", s.wallSeconds);
    w.field("throughputRps", s.throughputRps).field("rate429", s.rate429);
    w.key("wireSeconds").beginObject().field("p50", s.p50Seconds);
    w.field("p95", s.p95Seconds).field("p99", s.p99Seconds);
    w.endObject().endObject();
  }
  return w.endArray().endObject().str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hsd;
  bench::printHeader("Serving throughput (async front end, shared cache)");
  const char* jsonOut = bench::argString(argc, argv, "--json-out", nullptr);
  const char* wireJsonOut =
      bench::argString(argc, argv, "--wire-json-out", nullptr);

  const auto spec = bench::smallSuite()[0];
  const data::Benchmark b = data::generateBenchmark(spec);
  engine::RunContext trainCtx(bench::hwThreads());
  const core::Detector det =
      core::trainDetector(b.training.clips, bench::makeOurs().train, trainCtx);
  const core::EvalParams ep = bench::makeOurs().eval;

  // Distinct layouts for the cold scenario (different seeds), one layout
  // submitted repeatedly for the warm one.
  constexpr std::size_t kRequests = 8;
  std::vector<data::TestLayout> distinct;
  distinct.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    data::GeneratorParams gp;
    gp.seed = 1000 + i;
    distinct.push_back(data::generateTestLayout(gp, spec.width, spec.height,
                                                spec.sites, spec.riskyFrac));
  }

  serve::ServerConfig cfg;
  cfg.workers = 4;
  cfg.threadsPerContext = 2;

  std::vector<ScenarioResult> scenarios;
  {
    serve::DetectionServer server(cfg);
    std::vector<const Layout*> layouts;
    for (const auto& t : distinct) layouts.push_back(&t.layout);
    scenarios.push_back(runScenario("cold", server, det, layouts, ep));
  }
  {
    serve::DetectionServer server(cfg);
    const std::vector<const Layout*> layouts(kRequests, &b.test.layout);
    scenarios.push_back(runScenario("warm", server, det, layouts, ep));
  }
  {
    // Tiled requests over the same repeated layout: the per-request tile
    // fan-out borrows idle pooled contexts, and the shared cache serves
    // warm tiles whichever request computed them first.
    serve::ServerConfig tiledCfg = cfg;
    tiledCfg.contexts = cfg.workers + 2;  // idle contexts to borrow
    serve::DetectionServer server(tiledCfg);
    core::EvalParams tiledEp = ep;
    tiledEp.tiling.tileSize = spec.width / 4;
    const std::vector<const Layout*> layouts(kRequests, &b.test.layout);
    scenarios.push_back(runScenario("tiled", server, det, layouts, tiledEp));
  }
  if (jsonOut != nullptr &&
      !bench::writeJsonFile(jsonOut, toJson(scenarios)))
    return 1;

  // Over-the-wire scenarios: the same warm layout POSTed as raw GDSII by
  // concurrent real-socket clients.
  std::ostringstream gdsStream;
  gds::writeGdsii(gdsStream, b.test.layout);
  const std::string gdsBody = gdsStream.str();
  std::vector<WireResult> wire;
  wire.push_back(
      runWireScenario("wire", det, gdsBody, /*posters=*/4, /*perPoster=*/4,
                      cfg, /*maxQueueDepth=*/64));
  {
    // Overload: one slow worker, a one-deep admission queue, and twice the
    // posters — most requests must come back as typed 429s.
    serve::ServerConfig slow;
    slow.workers = 1;
    slow.threadsPerContext = 1;
    wire.push_back(runWireScenario("wire-overload", det, gdsBody,
                                   /*posters=*/8, /*perPoster=*/2, slow,
                                   /*maxQueueDepth=*/1));
  }
  if (wireJsonOut != nullptr &&
      !bench::writeJsonFile(wireJsonOut, wireToJson(wire)))
    return 1;
  return 0;
}
