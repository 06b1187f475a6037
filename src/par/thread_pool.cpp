#include "par/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/trace.hpp"
#include "obs/trace_id.hpp"

namespace hsd {

namespace {
thread_local bool tlsInWorker = false;
}  // namespace

bool ThreadPool::inWorker() { return tlsInWorker; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::workerLoop() {
  tlsInWorker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

std::size_t autoGrain(std::size_t n, std::size_t threads) {
  if (threads <= 1) return std::max<std::size_t>(1, n);
  // ~8 chunks per thread balances scheduling overhead against load skew.
  return std::max<std::size_t>(1, n / (threads * 8));
}

namespace {

// Chunk-claiming loop of every parallelFor task: workers grab `grain`
// consecutive indices per atomic fetch instead of one task/fetch per item
// (which is pathological for >100k-item ranges).
//
// An exception from `body` (notably engine::CancelledError) is captured
// into `firstError` for the submitting thread to rethrow, and the claim
// counter is pushed past `n` so every worker — this one included — stops
// claiming chunks instead of grinding through the remaining range. That
// makes cancellation prompt and keeps the pool reusable: no exception
// ever escapes into a worker thread (which would std::terminate).
void chunkLoop(std::atomic<std::size_t>& next, std::size_t n,
               std::size_t grain,
               const std::function<void(std::size_t)>& body,
               std::exception_ptr& firstError, std::mutex& errMu,
               obs::TraceRecorder* tracer) {
  for (;;) {
    const std::size_t i0 = next.fetch_add(grain);
    if (i0 >= n) return;
    const std::size_t i1 = std::min(i0 + grain, n);
    obs::Span span(tracer, "chunk", "par");
    span.arg("first", i0);
    span.arg("count", i1 - i0);
    try {
      for (std::size_t i = i0; i < i1; ++i) body(i);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(errMu);
        if (!firstError) firstError = std::current_exception();
      }
      next.store(n, std::memory_order_relaxed);  // drain all claimers
      return;
    }
  }
}

}  // namespace

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& body,
                             std::size_t grain, obs::TraceRecorder* tracer) {
  if (n == 0) return;
  // Running inline when called from a pool worker avoids deadlocking on
  // our own queue (the waiting task would occupy the slot its children
  // need).
  if (threadCount() <= 1 || n == 1 || inWorker()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  if (grain == 0) grain = autoGrain(n, threadCount());
  std::atomic<std::size_t> next{0};
  std::exception_ptr firstError;
  std::mutex errMu;
  const std::size_t tasks =
      std::min(threadCount(), (n + grain - 1) / grain);
  std::vector<std::future<void>> futs;
  futs.reserve(tasks);
  // Workers inherit the caller's request trace id for the duration of
  // their chunks, so fan-out spans/logs stay correlated to the request.
  const obs::TraceId trace = obs::currentTraceId();
  for (std::size_t t = 0; t < tasks; ++t)
    futs.push_back(submit([&, trace] {
      const obs::ScopedTraceId scope(trace);
      chunkLoop(next, n, grain, body, firstError, errMu, tracer);
    }));
  for (auto& f : futs) f.get();
  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace hsd
