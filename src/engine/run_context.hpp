// RunContext: the execution substrate of a detection/training run. Owns
// one ThreadPool shared by every phase (no more per-call pool or ad-hoc
// thread construction), the per-stage EngineStats registry, the streaming
// batch size, and a cooperative cancellation flag. Every long-running
// entry point in src/core takes a RunContext& — there is no other way in
// — so thread count, batch size, and per-stage wall time are controlled
// and observed from one place.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "engine/arena.hpp"
#include "engine/cache.hpp"
#include "engine/stats.hpp"
#include "obs/log.hpp"
#include "obs/model_stats.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"

namespace hsd::engine {

/// Thrown by RunContext::throwIfCancelled() once cancellation is
/// requested; pipelines and stage loops let it propagate to the caller.
struct CancelledError : std::runtime_error {
  CancelledError() : std::runtime_error("engine: run cancelled") {}
};

class RunContext {
 public:
  static constexpr std::size_t kDefaultBatchSize = 512;
  /// Largest thread count a command-line flag may ask for: the tools
  /// check --threads, --workers and --contexts against it (with
  /// wholeNumber, engine/tiler.hpp) before any context is built.
  static constexpr std::size_t kMaxThreads = 1024;

  /// `threads` == 0 selects hardware_concurrency; 1 means fully serial
  /// (no worker threads are ever spawned). The pool itself is created
  /// lazily on first parallel use.
  explicit RunContext(std::size_t threads = 0,
                      std::size_t batchSize = kDefaultBatchSize);

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  std::size_t threadCount() const { return threads_; }
  std::size_t batchSize() const { return batch_; }
  void setBatchSize(std::size_t b) { batch_ = b == 0 ? 1 : b; }

  EngineStats& stats() { return stats_; }
  const EngineStats& stats() const { return stats_; }

  /// The calling thread's scratch arena (engine/arena.hpp). Stage bodies
  /// carve per-clip buffers here under an ArenaScope instead of touching
  /// the heap; each pool worker gets its own arena, so this is safe from
  /// inside parallelFor without locks.
  Arena& scratch() const { return threadScratch(); }

  /// Attach a content-addressed stage cache (opt-in; see engine/cache.hpp).
  /// Sharing one StageCache across contexts/runs is what makes warm
  /// re-evaluation skip unchanged windows. Pass nullptr to detach.
  void attachCache(std::shared_ptr<StageCache> cache) {
    cache_ = std::move(cache);
  }
  /// The attached stage cache, or nullptr when running uncached.
  StageCache* cache() const { return cache_.get(); }
  std::shared_ptr<StageCache> sharedCache() const { return cache_; }

  /// Attach a span trace recorder (opt-in, like the stage cache; see
  /// obs/trace.hpp). Every stage batch, parallelFor chunk, and — via the
  /// cache's own recorder — StageCache lookup then lands in the trace.
  /// The recorder may be shared across contexts (its ring buffers are
  /// per-thread); pass nullptr to detach. Attach between runs, not while
  /// one is in flight.
  void attachTracer(std::shared_ptr<obs::TraceRecorder> tracer) {
    tracer_ = std::move(tracer);
  }
  /// The attached trace recorder, or nullptr when tracing is off.
  obs::TraceRecorder* tracer() const { return tracer_.get(); }
  std::shared_ptr<obs::TraceRecorder> sharedTracer() const { return tracer_; }

  /// Attach a structured log recorder (opt-in, shareable across contexts
  /// like the tracer; see obs/log.hpp). Stage and tile milestones land
  /// here via log(); pass nullptr to detach. Attach between runs.
  void attachLog(std::shared_ptr<obs::LogRecorder> log) {
    log_ = std::move(log);
  }
  obs::LogRecorder* logRecorder() const { return log_.get(); }
  std::shared_ptr<obs::LogRecorder> sharedLog() const { return log_; }

  /// Attach a model-quality recorder (opt-in, shareable across contexts
  /// like the tracer; see obs/model_stats.hpp). The evaluator's SVM and
  /// feedback stages record per-cluster decision margins and capture
  /// low-margin windows into it. Slot order must match the detector's
  /// kernel order (build from Detector::clusterNames()). Attach between
  /// runs; pass nullptr to detach.
  void attachModelStats(std::shared_ptr<obs::ModelStatsRecorder> rec) {
    modelStats_ = std::move(rec);
  }
  obs::ModelStatsRecorder* modelStats() const { return modelStats_.get(); }
  std::shared_ptr<obs::ModelStatsRecorder> sharedModelStats() const {
    return modelStats_;
  }
  /// Record one structured log line when a recorder is attached and the
  /// level clears its floor; a no-op (two loads) otherwise. The record
  /// inherits the calling thread's current trace id.
  void log(obs::LogLevel level, const char* component,
           std::string_view message, obs::TraceArg a0 = {},
           obs::TraceArg a1 = {}, obs::TraceStrArg s0 = {}) const {
    obs::logTo(log_.get(), level, component, message, a0, a1, s0);
  }

  /// Request correlation id for the run in flight on this context. The
  /// serve layer stamps the wire trace id here before evaluate() and the
  /// pool resets it on checkin; evaluators install it as the calling
  /// thread's current id (obs::ScopedTraceId) so every span/log under
  /// the run correlates. Two relaxed atomics — borrowed helper contexts
  /// are stamped cross-thread during tile fan-out.
  void setTraceId(obs::TraceId id) {
    traceHi_.store(id.hi, std::memory_order_relaxed);
    traceLo_.store(id.lo, std::memory_order_relaxed);
  }
  obs::TraceId traceId() const {
    return {traceHi_.load(std::memory_order_relaxed),
            traceLo_.load(std::memory_order_relaxed)};
  }

  /// Shared pool (created on first call; never call with threadCount()==1
  /// code paths that want to stay thread-free).
  ThreadPool& pool();

  // Cooperative cancellation: long loops poll cancelRequested() or call
  // throwIfCancelled() at batch boundaries; parallelFor additionally polls
  // per item, so a cancel lands mid-stage, not just between stages.
  //
  // Cancellation-reuse contract: requestCancel() (and an expired deadline)
  // poisons the context until resetCancel() is called — every subsequent
  // run on it throws CancelledError. Pooled contexts (serve::ContextPool)
  // call resetCancel() on checkin so a reused context starts clean.
  void requestCancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancelRequested() const {
    return cancel_.load(std::memory_order_relaxed) || deadlineExpired();
  }
  void throwIfCancelled() const {
    if (cancelRequested()) throw CancelledError();
  }
  /// Re-arm a cancelled context for reuse: clears the flag and any armed
  /// deadline. Call only between runs (not while a run is in flight).
  void resetCancel() {
    cancel_.store(false, std::memory_order_relaxed);
    deadlineNs_.store(0, std::memory_order_relaxed);
  }

  // Deadline: an absolute steady_clock point after which the context
  // behaves as cancelled (polled wherever cancellation is polled). This is
  // what backs per-request timeouts in the serving front end; no watchdog
  // thread is involved, expiry is detected cooperatively.
  void setDeadline(std::chrono::steady_clock::time_point d) {
    deadlineNs_.store(d.time_since_epoch().count(), std::memory_order_relaxed);
  }
  void clearDeadline() { deadlineNs_.store(0, std::memory_order_relaxed); }
  bool hasDeadline() const {
    return deadlineNs_.load(std::memory_order_relaxed) != 0;
  }
  /// True once an armed deadline has passed (false when none is armed).
  /// Stays true until resetCancel()/clearDeadline(), so a caller that
  /// caught CancelledError can distinguish timeout from explicit cancel.
  bool deadlineExpired() const {
    const std::int64_t d = deadlineNs_.load(std::memory_order_relaxed);
    return d != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= d;
  }

  /// Run body(i) for i in [0, n) on the shared pool, chunked by `grain`
  /// (0 = auto). Serial when threadCount() == 1. Index-stable writes make
  /// results independent of the thread count.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                   std::size_t grain = 0);

 private:
  std::size_t threads_;
  std::size_t batch_;
  EngineStats stats_;
  std::atomic<bool> cancel_{false};
  std::atomic<std::int64_t> deadlineNs_{0};  ///< steady_clock epoch ns; 0=none
  std::once_flag poolOnce_;
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<StageCache> cache_;
  std::shared_ptr<obs::TraceRecorder> tracer_;
  std::shared_ptr<obs::LogRecorder> log_;
  std::shared_ptr<obs::ModelStatsRecorder> modelStats_;
  std::atomic<std::uint64_t> traceHi_{0};  ///< request trace id (0,0 = none)
  std::atomic<std::uint64_t> traceLo_{0};
};

}  // namespace hsd::engine
