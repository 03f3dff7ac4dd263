// The analysis worker pool (DESIGN.md §9): a fixed-size thread pool with a
// fork-join submit() and a caller-participating parallel_for(). It exists so
// the sampling pipeline (Components #1/#2, filter generation) can run off
// the single-threaded epoll event loop that carries live BGP sessions: the
// loop thread submits one refresh job and keeps serving sessions; the job
// itself fans its per-prefix / per-VP-pair stages out across the workers.
//
// Determinism contract: parallel_for only hands out disjoint index ranges —
// every index is processed exactly once and the body writes to slots owned
// by that index, so the output is byte-identical to a serial loop no matter
// how many workers run it (the determinism tests assert this at 1, 2 and 8
// threads). The caller participates in its own parallel_for, which makes
// nested use from inside a submitted job deadlock-free even on a 1-thread
// pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gill::metrics {
class Counter;
class Gauge;
class Registry;
}  // namespace gill::metrics

namespace gill::par {

/// Picks a worker count for "auto" requests: hardware concurrency clamped
/// to [1, cap] (the analysis stages stop scaling past a handful of cores at
/// simulation sizes).
std::size_t auto_thread_count(std::size_t cap = 8) noexcept;

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least 1). When a registry is
  /// supplied the pool registers its gauges/counters there
  /// (gill_parallel_pool_threads, gill_parallel_jobs_total, ...).
  explicit ThreadPool(std::size_t threads,
                      metrics::Registry* registry = nullptr);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Drains the queue (every submitted job still runs), then joins.
  ~ThreadPool();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Fire-and-forget enqueue.
  void post(std::function<void()> task);

  /// Fork-join: runs `fn` on a worker and returns its future. The future's
  /// destructor does not block; pair with parallel_for for structured work.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    post([task] { (*task)(); });
    return future;
  }

  /// Splits [0, n) into contiguous shards and runs `body(begin, end)` on
  /// each, using the workers AND the calling thread; returns when every
  /// shard completed. Shard boundaries depend only on n and thread_count(),
  /// never on scheduling. Safe to call from inside a submitted job.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Total parallel_for shards executed (observability/test hook).
  std::uint64_t shards_executed() const noexcept {
    return shards_executed_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> shards_executed_{0};

  // Registry-backed instruments; null when no registry was supplied.
  metrics::Gauge* threads_gauge_ = nullptr;
  metrics::Gauge* queue_depth_ = nullptr;
  metrics::Counter* jobs_total_ = nullptr;
  metrics::Counter* shards_total_ = nullptr;
};

}  // namespace gill::par
