// Small thread pool + parallel_for, replacing the raw pthread usage of the
// paper (Sec. III-G). Kernel training, clip extraction and evaluation are
// all embarrassingly parallel over independent work items.
//
// Nothing constructs a ThreadPool directly: one pool lives inside
// engine::RunContext and is shared by every stage of a detection run
// (see src/engine/run_context.hpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace hsd::obs {
class TraceRecorder;
}  // namespace hsd::obs

namespace hsd {

/// Fixed-size pool of worker threads executing enqueued tasks FIFO.
class ThreadPool {
 public:
  /// `threads` == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const { return workers_.size(); }

  /// True when called from one of this process's pool worker threads (any
  /// pool). Used to run nested parallel_for calls inline instead of
  /// deadlocking on the pool's own queue.
  static bool inWorker();

  /// Enqueue a task; the future resolves when it completes (exceptions
  /// propagate through the future).
  template <typename F>
  std::future<void> submit(F&& f) {
    auto task = std::make_shared<std::packaged_task<void()>>(
        std::forward<F>(f));
    std::future<void> fut = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run body(i) for i in [0, n) on the pool, chunked: at most
  /// threadCount() tasks are submitted, each claiming `grain` consecutive
  /// indices at a time (0 = auto). Blocks until every worker finishes; the
  /// first exception is rethrown on the calling thread and stops all
  /// workers from claiming further chunks (prompt cancellation — a
  /// CancelledError does not grind through the remaining range). Safe to
  /// call from a worker thread (runs inline serially to avoid
  /// self-deadlock). With a non-null `tracer`, every claimed chunk is
  /// recorded as one "par"-category span (args: first index, count) on
  /// the worker that ran it — the per-thread view of how a range was
  /// scheduled.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                   std::size_t grain = 0, obs::TraceRecorder* tracer = nullptr);

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Auto grain: aim for ~8 chunks per thread, at least 1 index each.
std::size_t autoGrain(std::size_t n, std::size_t threads);

}  // namespace hsd
