// Serving-level tests (ctest label: serve). Pins the DetectionServer
// contract:
//  - the same layout submitted serially vs. concurrently produces
//    byte-identical canonical reports (shared cache + context reuse leak
//    no state between requests);
//  - a repeated layout gets cross-request cache hits (the second request
//    recomputes nothing);
//  - deadline-expired requests resolve to a typed kTimeout result — both
//    the aged-out-in-queue and the cancelled-mid-run paths — and the
//    pooled context that served a timed-out run serves the next request
//    cleanly (resetCancel-on-checkin regression);
//  - callbacks fire, shutdown rejects new work, aggregate stats add up;
//  - the ContextPool alone: tryCheckout never waits, checkout blocks
//    until a checkin, checkin resets the context and refuses a foreign
//    one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "engine/run_context.hpp"
#include "serve/server.hpp"

namespace hsd::serve {
namespace {

const tests::DetectorFixture& fx() { return tests::detectorFixture(); }

/// Canonical report of a plain (serverless) single-threaded evaluation —
/// the baseline every served result must match byte-for-byte.
const std::string& baselineReport() {
  static const std::string report = [] {
    engine::RunContext ctx(1);
    return tests::canonicalReport(
        core::evaluateLayout(fx().detector, fx().test.layout,
                             core::EvalParams{}, ctx));
  }();
  return report;
}

TEST(DetectionServer, SerialSubmissionsMatchBaseline) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.threadsPerContext = 2;
  DetectionServer server(cfg);
  for (int i = 0; i < 3; ++i) {
    const ServeResult r =
        server.submit(fx().detector, fx().test.layout, core::EvalParams{})
            .get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << toString(r.status);
    EXPECT_EQ(tests::canonicalReport(r.result), baselineReport())
        << "serial request " << i;
    EXPECT_GE(r.queueSeconds, 0.0);
    EXPECT_GT(r.runSeconds, 0.0);
  }
  const DetectionServer::Stats s = server.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.ok, 3u);
  EXPECT_EQ(s.completed, 3u);
}

TEST(DetectionServer, ConcurrentSubmissionsByteIdenticalToSerial) {
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.threadsPerContext = 2;
  DetectionServer server(cfg);
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(
        server.submit(fx().detector, fx().test.layout, core::EvalParams{}));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const ServeResult r = futs[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << toString(r.status);
    EXPECT_EQ(tests::canonicalReport(r.result), baselineReport())
        << "concurrent request " << i;
  }
  EXPECT_EQ(server.stats().ok, 8u);
}

TEST(DetectionServer, RepeatedLayoutHitsSharedCacheAcrossRequests) {
  // Untiled, then tiled: a tiled request's per-stage cache counters are
  // summed over its tiles.
  core::EvalParams tiled;
  tiled.tiling.tileSize = 8000;
  for (const core::EvalParams& params : {core::EvalParams{}, tiled}) {
    SCOPED_TRACE(params.tiling.enabled() ? "tiled" : "untiled");
    ServerConfig cfg;
    cfg.workers = 1;  // strict order: first populates, second must hit
    cfg.threadsPerContext = 2;
    DetectionServer server(cfg);
    const ServeResult first =
        server.submit(fx().detector, fx().test.layout, params).get();
    const ServeResult second =
        server.submit(fx().detector, fx().test.layout, params).get();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());

    // Per-request counters: the cold request misses, the warm one serves
    // every window from the shared cache and recomputes nothing.
    EXPECT_GT(first.cache("eval/verdict").misses, 0u);
    EXPECT_EQ(first.cache("eval/verdict").hits, 0u);
    EXPECT_EQ(second.cache("eval/verdict").misses, 0u);
    EXPECT_GT(second.cache("eval/verdict").hits, 0u);
    EXPECT_EQ(second.cache("extract/screen").misses, 0u);
    EXPECT_GT(second.cache("extract/screen").hits, 0u);
    EXPECT_EQ(second.cacheTotal().hits,
              second.cache("eval/verdict").hits +
                  second.cache("extract/screen").hits);
    EXPECT_EQ(tests::canonicalReport(second.result), baselineReport());

    // Aggregate view: cross-request hits show up in stats and the JSON.
    const DetectionServer::Stats s = server.stats();
    EXPECT_GT(s.cache.hits, 0u);
    const std::string json = server.statsJson();
    const std::size_t hitRate = json.find("\"hitRate\": ");
    ASSERT_NE(hitRate, std::string::npos) << json;
    EXPECT_GT(std::strtod(json.c_str() + hitRate + 11, nullptr), 0.0)
        << json;
  }
}

TEST(DetectionServer, CacheDisabledStillServesIdenticalResults) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.enableCache = false;
  DetectionServer server(cfg);
  EXPECT_EQ(server.cache(), nullptr);
  const ServeResult r =
      server.submit(fx().detector, fx().test.layout, core::EvalParams{}).get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(tests::canonicalReport(r.result), baselineReport());
  EXPECT_EQ(server.stats().cache.hits, 0u);
}

TEST(DetectionServer, AlreadyExpiredDeadlineIsTypedTimeout) {
  ServerConfig cfg;
  cfg.workers = 2;
  DetectionServer server(cfg);
  // A zero timeout is expired by the time a worker dequeues it: the
  // request must resolve (no exception, no crash) with kTimeout and must
  // never have started evaluating.
  const ServeResult r =
      server
          .submit(fx().detector, fx().test.layout, core::EvalParams{},
                  std::chrono::steady_clock::duration::zero())
          .get();
  EXPECT_EQ(r.status, RequestStatus::kTimeout);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.runSeconds, 0.0);
  EXPECT_EQ(server.stats().timeout, 1u);
}

TEST(DetectionServer, MidRunDeadlineTimesOutAndContextServesNextRequest) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.contexts = 1;  // the timed-out context is necessarily the reused one
  cfg.threadsPerContext = 4;
  DetectionServer server(cfg);
  // 200µs is far below one evaluation of the fixture layout but (usually)
  // above queue latency, exercising the cancel-mid-run path; either way
  // the result must be a typed timeout.
  const ServeResult timedOut =
      server
          .submit(fx().detector, fx().test.layout, core::EvalParams{},
                  std::chrono::microseconds(200))
          .get();
  EXPECT_EQ(timedOut.status, RequestStatus::kTimeout);

  // Cancellation-reuse regression: the pooled context just aborted a run;
  // checkin must have reset it so this request runs cleanly and matches
  // the baseline.
  const ServeResult ok =
      server.submit(fx().detector, fx().test.layout, core::EvalParams{}).get();
  ASSERT_EQ(ok.status, RequestStatus::kOk) << toString(ok.status);
  EXPECT_EQ(tests::canonicalReport(ok.result), baselineReport());
}

TEST(DetectionServer, MixedDeadlinesNeverPoisonHealthyRequests) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.contexts = 2;
  cfg.threadsPerContext = 2;
  DetectionServer server(cfg);
  std::vector<std::future<ServeResult>> doomed;
  std::vector<std::future<ServeResult>> healthy;
  for (int i = 0; i < 4; ++i) {
    doomed.push_back(server.submit(fx().detector, fx().test.layout,
                                   core::EvalParams{},
                                   std::chrono::microseconds(100)));
    healthy.push_back(
        server.submit(fx().detector, fx().test.layout, core::EvalParams{}));
  }
  for (auto& f : doomed) {
    const ServeResult r = f.get();
    EXPECT_TRUE(r.status == RequestStatus::kTimeout ||
                r.status == RequestStatus::kOk)
        << toString(r.status);
  }
  for (auto& f : healthy) {
    const ServeResult r = f.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << toString(r.status);
    EXPECT_EQ(tests::canonicalReport(r.result), baselineReport());
  }
}

TEST(DetectionServer, CallbackFiresBeforeFutureResolves) {
  ServerConfig cfg;
  cfg.workers = 1;
  DetectionServer server(cfg);
  std::atomic<int> called{0};
  const ServeResult r =
      server
          .submit(fx().detector, fx().test.layout, core::EvalParams{}, {},
                  [&called](const ServeResult& cb) {
                    called += cb.ok() ? 1 : 0;
                    throw std::runtime_error("callback throws are swallowed");
                  })
          .get();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(called.load(), 1);
}

TEST(DetectionServer, ShutdownRejectsNewWorkAndIsIdempotent) {
  ServerConfig cfg;
  cfg.workers = 2;
  DetectionServer server(cfg);
  server.shutdown();
  server.shutdown();  // idempotent
  const ServeResult r =
      server.submit(fx().detector, fx().test.layout, core::EvalParams{}).get();
  EXPECT_EQ(r.status, RequestStatus::kRejected);
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().submitted, 0u);
}

TEST(DetectionServer, MetricsAndTraceAccountForEveryRequest) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.threadsPerContext = 2;
  cfg.tracer = std::make_shared<obs::TraceRecorder>();
  DetectionServer server(cfg);
  constexpr std::size_t kN = 4;
  std::vector<std::future<ServeResult>> futs;
  for (std::size_t i = 0; i < kN; ++i)
    futs.push_back(
        server.submit(fx().detector, fx().test.layout, core::EvalParams{}));
  for (auto& f : futs) ASSERT_EQ(f.get().status, RequestStatus::kOk);
  server.shutdown();

  // Every submitted request lands in both latency histograms — the
  // _count == submitted invariant the Prometheus surface promises.
  EXPECT_EQ(server.queueLatency().count(), kN);
  EXPECT_EQ(server.runLatency().count(), kN);
  const std::string prom = server.renderPrometheus();
  EXPECT_NE(prom.find("hsd_serve_requests_submitted_total 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("hsd_serve_requests_total{status=\"ok\"} 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("hsd_serve_run_seconds_count 4\n"), std::string::npos);
  EXPECT_NE(prom.find("hsd_serve_queue_seconds_count 4\n"),
            std::string::npos);
  // Gauges settle back to zero once the queue drains.
  EXPECT_NE(prom.find("hsd_serve_queue_depth 0\n"), std::string::npos);
  EXPECT_NE(prom.find("hsd_serve_inflight_requests 0\n"), std::string::npos);
  // Repeated submissions of one layout must hit the shared cache, and the
  // per-request deltas must roll up into the server-level counter.
  const char* const hitsLine = "\nhsd_serve_cache_hits_total ";
  const std::size_t hitsPos = prom.find(hitsLine);
  ASSERT_NE(hitsPos, std::string::npos);
  EXPECT_GT(std::atoll(prom.c_str() + hitsPos + std::strlen(hitsLine)), 0);
  // statsJson carries the same percentiles for the SERVE_STATS line.
  EXPECT_NE(server.statsJson().find("\"latency\""), std::string::npos);

  // The trace holds one queued and one run span per request, each
  // annotated with its 1-based request id, on named worker threads.
  std::vector<std::uint64_t> queuedIds;
  std::size_t runSpans = 0;
  for (const auto& se : cfg.tracer->snapshot()) {
    if (std::strcmp(se.event.cat, "serve") != 0) continue;
    if (std::strcmp(se.event.name, "serve/queued") == 0)
      queuedIds.push_back(se.event.a0.value);
    if (std::strcmp(se.event.name, "serve/run") == 0) {
      ++runSpans;
      ASSERT_NE(se.event.s0.key, nullptr);
      EXPECT_STREQ(se.event.s0.value, "ok");
    }
  }
  std::sort(queuedIds.begin(), queuedIds.end());
  EXPECT_EQ(queuedIds, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(runSpans, kN);
  const std::vector<std::string> names = cfg.tracer->threadNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "serve-worker-0"),
            names.end());
}

TEST(DetectionServer, StatusNamesAreStable) {
  EXPECT_STREQ(toString(RequestStatus::kOk), "ok");
  EXPECT_STREQ(toString(RequestStatus::kTimeout), "timeout");
  EXPECT_STREQ(toString(RequestStatus::kCancelled), "cancelled");
  EXPECT_STREQ(toString(RequestStatus::kError), "error");
  EXPECT_STREQ(toString(RequestStatus::kRejected), "rejected");
}

// ---------------------------------------------------------------------------
// ContextPool on its own: the free list the workers and the tiled fan-out
// share.

TEST(ContextPool, TryCheckoutReturnsNullWhenEveryContextIsOut) {
  ContextPool pool(2, 1, nullptr);
  engine::RunContext* const a = pool.tryCheckout();
  engine::RunContext* const b = pool.tryCheckout();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.tryCheckout(), nullptr);
  pool.checkin(a);
  EXPECT_EQ(pool.tryCheckout(), a);
  pool.checkin(a);
  pool.checkin(b);
}

TEST(ContextPool, CheckoutBlocksUntilCheckin) {
  ContextPool pool(1, 1, nullptr);
  engine::RunContext* const held = pool.checkout();
  std::future<engine::RunContext*> waiter =
      std::async(std::launch::async, [&pool] { return pool.checkout(); });
  EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "checkout returned while the only context was out";
  pool.checkin(held);
  EXPECT_EQ(waiter.get(), held);
  pool.checkin(held);
}

TEST(ContextPool, CheckinClearsCancelDeadlineStatsAndTrace) {
  ContextPool pool(1, 1, nullptr);
  engine::RunContext* const ctx = pool.checkout();
  ctx->requestCancel();
  ctx->setDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  ctx->stats().record("test/stage", 3, 0.5);
  ctx->setTraceId({1, 2});
  pool.checkin(ctx);

  engine::RunContext* const again = pool.checkout();
  ASSERT_EQ(again, ctx);
  EXPECT_FALSE(again->cancelRequested());
  EXPECT_FALSE(again->hasDeadline());
  EXPECT_EQ(again->stats().rollup("test/stage").calls, 0u);
  EXPECT_FALSE(again->traceId().valid());
  pool.checkin(again);
}

TEST(ContextPool, ForeignContextIsRefused) {
  ContextPool pool(1, 1, nullptr);
  engine::RunContext* const own = pool.checkout();
  engine::RunContext foreign(1);
  foreign.requestCancel();
  pool.checkin(&foreign);
  EXPECT_EQ(pool.tryCheckout(), nullptr) << "a foreign context was pooled";
  EXPECT_TRUE(foreign.cancelRequested()) << "a refused context was reset";
  pool.checkin(own);
  EXPECT_EQ(pool.tryCheckout(), own);
  pool.checkin(own);
}

}  // namespace
}  // namespace hsd::serve
