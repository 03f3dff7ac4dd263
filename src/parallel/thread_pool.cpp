#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "metrics/metrics.hpp"

namespace gill::par {

std::size_t auto_thread_count(std::size_t cap) noexcept {
  const std::size_t hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware, 1, std::max<std::size_t>(cap, 1));
}

ThreadPool::ThreadPool(std::size_t threads, metrics::Registry* registry) {
  const std::size_t count = std::max<std::size_t>(1, threads);
  if (registry != nullptr) {
    threads_gauge_ = &registry->gauge("gill_parallel_pool_threads",
                                      "Workers in the analysis thread pool");
    queue_depth_ = &registry->gauge("gill_parallel_pool_queue_depth",
                                    "Tasks waiting for an analysis worker");
    jobs_total_ = &registry->counter("gill_parallel_jobs_total",
                                     "Tasks submitted to the analysis pool");
    shards_total_ =
        &registry->counter("gill_parallel_shards_total",
                           "parallel_for shards executed by the pool");
    threads_gauge_->set(static_cast<double>(count));
  }
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (threads_gauge_ != nullptr) threads_gauge_->set(0.0);
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    if (queue_depth_ != nullptr) queue_depth_->add(1.0);
  }
  if (jobs_total_ != nullptr) jobs_total_->inc();
  ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain before exiting so ~ThreadPool never abandons a submitted
      // job (its future would otherwise throw broken_promise).
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      if (queue_depth_ != nullptr) queue_depth_->sub(1.0);
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  // Shard count depends only on n and the pool size — never on scheduling —
  // so the index ranges (and therefore the work decomposition) are stable
  // across runs. More shards than workers smooths out uneven shard costs.
  const std::size_t shards =
      std::min(n, std::max<std::size_t>(1, thread_count() * 4));
  if (shards <= 1) {
    body(0, n);
    shards_executed_.fetch_add(1, std::memory_order_relaxed);
    if (shards_total_ != nullptr) shards_total_->inc();
    return;
  }

  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t shards = 0;
    std::size_t n = 0;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::mutex mutex;
    std::condition_variable all_done;
  };
  auto state = std::make_shared<State>();
  state->shards = shards;
  state->n = n;
  state->body = &body;

  const auto run_shards = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const std::size_t shard =
          s->next.fetch_add(1, std::memory_order_relaxed);
      if (shard >= s->shards) return;
      const std::size_t begin = shard * s->n / s->shards;
      const std::size_t end = (shard + 1) * s->n / s->shards;
      (*s->body)(begin, end);
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->shards) {
        std::lock_guard<std::mutex> lock(s->mutex);
        s->all_done.notify_all();
      }
    }
  };

  // Helpers race the caller for shards; any helper that arrives after the
  // range is exhausted becomes a no-op. The caller always participates, so
  // progress never depends on a worker being free (nested calls included).
  const std::size_t helpers = std::min(thread_count(), shards - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    post([state, run_shards] { run_shards(state); });
  }
  run_shards(state);
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->all_done.wait(lock, [&state] {
      return state->done.load(std::memory_order_acquire) == state->shards;
    });
  }
  shards_executed_.fetch_add(shards, std::memory_order_relaxed);
  if (shards_total_ != nullptr) shards_total_->inc(shards);
}

}  // namespace gill::par
