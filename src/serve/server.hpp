// Async serving front end over the detection engine (EPIC-style: hotspot
// prediction as a service that amortizes model cost across many queries).
//
// A DetectionServer multiplexes many evaluation requests — each a
// (detector, layout, EvalParams, optional deadline) tuple — over a bounded
// pool of pre-warmed engine::RunContexts. All contexts share one
// StageCache, so repeated IP blocks across *different* requests hit warm
// verdict/screen entries; the cache's purity contract (values are pure
// functions of their key) makes concurrent reports byte-identical to
// serial ones. Requests past their deadline are cancelled cooperatively
// via the context's deadline (RunContext::setDeadline) and surface a
// typed RequestStatus::kTimeout result — no exception ever escapes a
// worker thread.
//
// Threading model: N worker threads drain a FIFO request queue; each
// checks a RunContext out of the ContextPool for the duration of one
// evaluation and checks it back in reset (cancellation flag cleared,
// deadline disarmed, per-request stats wiped — the cancellation-reuse
// contract in src/engine/README.md). Contexts may be fewer than workers;
// checkout then blocks, bounding the number of in-flight evaluations.
//
// Tiled requests (params.tiling enabled) additionally fan their tiles
// across the pool: the worker borrows idle contexts *non-blockingly*
// (tryCheckout — the request always progresses on its own context, so
// tile fan-out can never deadlock the fleet) until every tile has a
// thread, hands its own context and the helpers to core::evaluateTiles
// — the one tile scheduler — and checks the helpers back in whatever
// happened. The sequence-ordered merge makes the reports byte-identical
// to an untiled run. The shared StageCache is keyed on
// translation-invariant content hashes, so warm tiles skip recompute
// whichever context — or request — computed them first.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/cache.hpp"
#include "engine/run_context.hpp"
#include "engine/stats.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/model_stats.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/trace_id.hpp"

namespace hsd::serve {

struct ServerConfig {
  std::size_t workers = 2;       ///< request-draining threads
  std::size_t contexts = 0;      ///< RunContext pool size (0 = workers)
  std::size_t threadsPerContext = 1;  ///< intra-request parallelism
  bool enableCache = true;       ///< share one StageCache across requests
  /// Opt-in span tracing of the whole serving path: worker threads are
  /// named in the trace, every request contributes queued/run spans
  /// (request-id and status annotated), pooled contexts emit per-batch
  /// stage spans and parallelFor chunk spans, and the shared StageCache
  /// records hit/miss-annotated lookups. Near-zero overhead when null.
  std::shared_ptr<obs::TraceRecorder> tracer;
  /// Opt-in structured logging along the same path: request completion
  /// records on the workers plus eval/tile milestones from the pooled
  /// contexts, all trace-correlated. Near-zero overhead when null.
  std::shared_ptr<obs::LogRecorder> log;
  /// SLO objectives for the built-in tracker (availability over finished
  /// requests, latency over the run histogram); see slo().
  obs::SloConfig slo;
  /// Opt-in model-quality recording: attached to every pooled context, so
  /// each evaluation's SVM margins land in the per-cluster sketches (and
  /// borderline windows in the capture ring). Slot order must match the
  /// served detector's kernel order (Detector::clusterNames()). Its
  /// verdict counters are bound into the server's MetricsRegistry.
  /// Near-zero overhead when null.
  std::shared_ptr<obs::ModelStatsRecorder> modelStats;
};

enum class RequestStatus {
  kOk,         ///< evaluation completed; ServeResult::result is valid
  kTimeout,    ///< deadline expired before or during evaluation
  kCancelled,  ///< cancelled without a deadline having expired
  kError,      ///< evaluation threw; ServeResult::error holds what()
  kRejected,   ///< submitted after shutdown()
};

const char* toString(RequestStatus s);

/// Outcome of one request. `result` is meaningful only when ok();
/// stats/cache snapshots cover exactly this request (the pooled context's
/// registry is wiped between requests).
struct ServeResult {
  RequestStatus status = RequestStatus::kRejected;
  /// The server's 1-based submission index of this request — the same id
  /// annotated on the serve/queued and serve/run trace spans, so a wire
  /// response header can be correlated with the trace (0 when rejected
  /// before admission).
  std::uint64_t requestId = 0;
  core::EvalResult result;
  std::string error;
  /// The request's correlation id, echoed from submit(): the same id is
  /// on every span and log record the evaluation produced ({0,0} when the
  /// caller passed none).
  obs::TraceId trace;
  std::string statsJson;  ///< per-request EngineStats JSON dump
  /// Per-stage cache counters summed over tiles (cacheRollups()).
  std::vector<std::pair<std::string, engine::CacheStats>> cacheStats;
  double queueSeconds = 0.0;  ///< submit -> dequeue
  double runSeconds = 0.0;    ///< dequeue -> completion (0 if never ran)
  /// Arena payload bytes the process reserved during this run (a delta of
  /// engine::arenaReservedBytes() across the evaluation — 0 in steady
  /// state, where arenas rewind in place). Feeds the X-Profile report.
  std::uint64_t arenaReservedBytes = 0;

  bool ok() const { return status == RequestStatus::kOk; }
  /// Per-request cache counters of one stage (zeros when never recorded).
  engine::CacheStats cache(const std::string& stage) const;
  /// Per-request cache counters summed over every stage.
  engine::CacheStats cacheTotal() const;
};

/// Bounded blocking pool of pre-warmed RunContexts. checkout() blocks
/// until a context is free; checkin() resets it (cancellation flag,
/// deadline, per-request stats, trace id) so the next request starts
/// clean even after a cancelled/timed-out run. The free contexts sit in
/// one list under one mutex; checkin pushes under that mutex before
/// notifying, so a sleeping checkout can't miss the release.
class ContextPool {
 public:
  ContextPool(std::size_t contexts, std::size_t threadsPerContext,
              std::shared_ptr<engine::StageCache> cache,
              std::shared_ptr<obs::TraceRecorder> tracer = nullptr,
              std::shared_ptr<obs::LogRecorder> log = nullptr,
              std::shared_ptr<obs::ModelStatsRecorder> modelStats = nullptr);

  ContextPool(const ContextPool&) = delete;
  ContextPool& operator=(const ContextPool&) = delete;

  engine::RunContext* checkout();
  /// Non-blocking checkout: nullptr when no context is free right now.
  /// Tiled fan-out uses this to borrow idle contexts without ever waiting
  /// on one (a worker holding its own context while blocking for more is
  /// a pool deadlock).
  engine::RunContext* tryCheckout();
  /// Return a checked-out context; a context this pool does not own is
  /// refused (left untouched and never handed out).
  void checkin(engine::RunContext* ctx);
  std::size_t size() const { return all_.size(); }

 private:
  std::vector<std::unique_ptr<engine::RunContext>> all_;
  std::mutex mu_;                          ///< guards free_
  std::vector<engine::RunContext*> free_;  ///< contexts not checked out
  std::condition_variable cv_;             ///< signalled on every checkin
};

/// External cancellation handle for one submitted request. A caller that
/// may want to abandon a request (e.g. the HTTP endpoint when the client
/// disconnects) passes one to submit() and calls cancel() from any
/// thread: a still-queued request fast-fails with kCancelled, a running
/// one gets its RunContext's cooperative cancel flag raised. cancel() is
/// idempotent; the handle is single-use (one submit() per source).
class CancelSource {
 public:
  /// Request cancellation. Safe from any thread, any time between
  /// submit() and the future resolving; a no-op after completion.
  void cancel();
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  friend class DetectionServer;
  void bind(engine::RunContext* ctx);    ///< worker: run is starting
  void unbind();                         ///< worker: run is over

  std::atomic<bool> cancelled_{false};
  std::mutex mu_;
  engine::RunContext* ctx_ = nullptr;  ///< non-null while bound to a run
};

/// The serving front end. Callers must keep the detector and layout alive
/// until the returned future resolves (the server stores references, not
/// copies — layouts are large).
class DetectionServer {
 public:
  using Callback = std::function<void(const ServeResult&)>;

  explicit DetectionServer(ServerConfig cfg = {});
  ~DetectionServer();  // shutdown(): drains the queue, joins workers

  DetectionServer(const DetectionServer&) = delete;
  DetectionServer& operator=(const DetectionServer&) = delete;

  /// Enqueue one evaluation. `timeout` is measured from submission; an
  /// expired request is cancelled mid-run (or skipped if still queued) and
  /// resolves to kTimeout instead of throwing. `callback`, if given, runs
  /// on the worker thread right before the future resolves (exceptions it
  /// throws are swallowed). `cancel`, if given, lets the caller abandon
  /// the request from another thread (resolves kCancelled; see
  /// CancelSource).
  /// `trace`, if valid, correlates the request end to end: it is stamped
  /// on the checked-out context (and every borrowed tile context), every
  /// span/log the evaluation records, the latency-histogram exemplars,
  /// and the ServeResult.
  std::future<ServeResult> submit(
      const core::Detector& det, const Layout& layout, core::EvalParams params,
      std::optional<std::chrono::steady_clock::duration> timeout = {},
      Callback callback = nullptr,
      std::shared_ptr<CancelSource> cancel = nullptr,
      obs::TraceId trace = {});

  /// Stop accepting, drain every queued request, join the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// True from construction (the ContextPool is pre-warmed in the
  /// constructor, so a constructed server is a ready server) until
  /// shutdown() begins. This is the /readyz readiness hook: it flips
  /// false the moment a drain starts, while in-flight requests finish.
  bool accepting() const;

  /// Requests accepted but not yet dequeued by a worker — the admission
  /// signal behind the wire endpoint's 429 policy (same value as the
  /// hsd_serve_queue_depth gauge, read exactly).
  std::size_t queueDepth() const;

  /// Aggregate lifetime counters (requests by outcome, worker busy time,
  /// shared-cache totals), read from the metrics() registry: the request
  /// counts are hsd_serve_requests_submitted_total and the per-status
  /// hsd_serve_requests_total, busySeconds is the hsd_serve_run_seconds
  /// sum.
  struct Stats {
    std::size_t submitted = 0;
    std::size_t completed = 0;  ///< ok + timeout + cancelled + error
    std::size_t ok = 0;
    std::size_t timeout = 0;
    std::size_t cancelled = 0;
    std::size_t error = 0;
    std::size_t rejected = 0;
    double busySeconds = 0.0;  ///< summed per-request run time
    engine::StageCache::Counters cache;  ///< zeros when caching is off
  };
  Stats stats() const;
  /// One-line JSON of stats() plus the pool/worker shape and queue/run
  /// latency percentiles — the SERVE_STATS payload of tools/hsd_serve and
  /// bench/serve_throughput.
  std::string statsJson() const;

  std::shared_ptr<engine::StageCache> cache() const { return cache_; }
  const ServerConfig& config() const { return cfg_; }

  /// The built-in SLO tracker (always present): availability = ok over
  /// finished evaluations, latency = the run histogram against
  /// ServerConfig::slo. Share with AdminServer::setSlo for /sloz.
  std::shared_ptr<obs::SloTracker> slo() const { return slo_; }

  /// The server's metric registry (always present, updated live):
  /// hsd_serve_queue_depth / hsd_serve_inflight_requests gauges,
  /// hsd_serve_requests_submitted_total and per-status
  /// hsd_serve_requests_total counters, hsd_serve_queue_seconds /
  /// hsd_serve_run_seconds histograms, shared-cache hit/miss counters.
  std::shared_ptr<obs::MetricsRegistry> metrics() const { return metrics_; }
  /// Prometheus text exposition of metrics() — the on-demand scrape
  /// surface; tools/hsd_serve dumps it to --metrics-out at exit.
  std::string renderPrometheus() const { return metrics_->renderPrometheus(); }
  /// Live latency histograms (for percentile reporting in benches).
  const obs::Histogram& queueLatency() const { return *queueHist_; }
  const obs::Histogram& runLatency() const { return *runHist_; }

 private:
  struct Request {
    const core::Detector* det = nullptr;
    const Layout* layout = nullptr;
    core::EvalParams params;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::chrono::steady_clock::time_point submitted;
    std::uint64_t id = 0;  ///< 1-based submission index (trace span arg)
    obs::TraceId trace;    ///< wire correlation id ({0,0} = none)
    Callback callback;
    std::shared_ptr<CancelSource> cancel;  ///< optional external cancel
    std::promise<ServeResult> promise;
  };

  void workerLoop(std::size_t workerIndex);
  ServeResult process(Request& req);
  /// Tiled request path: prepare the plan, run core::evaluateTiles on
  /// `primary` plus the idle pool contexts it can borrow, check them back
  /// in, merge and run removal globally. evaluateTiles folds helper stats
  /// into `primary`, so the per-request statsJson covers every tile.
  core::EvalResult runTiled(Request& req, engine::RunContext& primary);
  void finish(Request& req, ServeResult res);
  void registerMetrics();

  ServerConfig cfg_;
  std::shared_ptr<engine::StageCache> cache_;
  std::unique_ptr<ContextPool> pool_;
  std::shared_ptr<obs::SloTracker> slo_;

  // Registered once in the constructor; the pointees live in metrics_ and
  // are updated lock-free on the request path.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Gauge* queueDepth_ = nullptr;
  obs::Gauge* inflight_ = nullptr;
  obs::Counter* submittedTotal_ = nullptr;
  obs::Counter* statusTotal_[5] = {};  ///< indexed by RequestStatus
  obs::Histogram* queueHist_ = nullptr;
  obs::Histogram* runHist_ = nullptr;
  obs::Counter* cacheHits_ = nullptr;
  obs::Counter* cacheMisses_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool accepting_ = true;
  bool stopping_ = false;
  std::uint64_t lastId_ = 0;  ///< id of the latest admitted request
  std::vector<std::thread> workers_;
};

}  // namespace hsd::serve
