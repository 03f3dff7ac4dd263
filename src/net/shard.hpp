// The multi-loop ingest fleet (DESIGN.md §14): N EventLoops, one pinned
// thread each, plus the two primitives that shard inbound sessions across
// them without ever sharing a session between threads.
//
//   * ShardSet owns the loops and their threads. Cross-shard communication
//     is EventLoop::post() only — a closure runs on the owning shard's
//     thread, so shard state needs no locks. call() is the synchronous
//     spelling (post + wait) the control plane uses for harvests.
//   * ShardedListener puts one SO_REUSEPORT listener on every shard, so
//     the kernel spreads inbound connections across the loops with zero
//     hand-off cost: an accepted fd is registered with the epoll of the
//     shard that accepted it and never crosses threads.
//
// The accept callback always runs on the owning shard's loop thread; the
// session it builds (transport, daemon FSM, token buckets) lives and dies
// on that thread.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"

namespace gill::net {

class ShardSet {
 public:
  /// Builds `count` loops (clamped to at least 1). Threads start in
  /// start(); until then every loop may be used single-threaded (setup).
  explicit ShardSet(std::size_t count, std::uint32_t granularity_ms = 10);
  ~ShardSet();
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  std::size_t size() const noexcept { return loops_.size(); }
  EventLoop& loop(std::size_t shard) { return *loops_[shard]; }

  /// Spawns one thread per loop, each running EventLoop::run().
  void start();
  /// Stops every loop (posted, so a loop parked in epoll_wait wakes) and
  /// joins the threads. Idempotent; also runs from the destructor.
  void stop();
  bool running() const noexcept { return !threads_.empty(); }

  /// Runs `task` on shard `shard`'s thread: posted when the fleet is
  /// running, inline when it is not (setup/teardown phases).
  void post(std::size_t shard, std::function<void()> task);

  /// post() + wait: runs `fn` on the shard thread and returns its result.
  /// The control plane's harvest primitive (mirror take, health snapshot,
  /// filter install). Never call from a shard thread onto another shard
  /// that might be blocked on this one — the control thread is the only
  /// intended caller, and shards never call() anybody.
  template <typename F>
  auto call(std::size_t shard, F&& fn) -> std::invoke_result_t<F> {
    using Result = std::invoke_result_t<F>;
    if (!running()) return fn();
    std::packaged_task<Result()> task(std::forward<F>(fn));
    std::future<Result> future = task.get_future();
    loops_[shard]->post([&task] { task(); });
    return future.get();
  }

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;
};

class ShardedListener {
 public:
  /// Runs on the OWNING shard's loop thread; the callback owns the fd.
  using AcceptCallback = std::function<void(
      std::size_t shard, int fd, std::string peer_ip, std::uint16_t port)>;

  ShardedListener(ShardSet& shards, metrics::Registry* registry = nullptr);
  ~ShardedListener();
  ShardedListener(const ShardedListener&) = delete;
  ShardedListener& operator=(const ShardedListener&) = delete;

  /// Binds `host:port` on every shard with SO_REUSEPORT. Fails (and binds
  /// nothing) when any shard's listener cannot join the group. Call BEFORE
  /// ShardSet::start(): listener registration touches each loop's fd table
  /// from this thread.
  bool listen(const std::string& host, std::uint16_t port,
              AcceptCallback on_accept);
  void close();

  /// The bound port (resolves ephemeral binds).
  std::uint16_t port() const noexcept { return port_; }

 private:
  ShardSet* shards_;
  metrics::Registry* registry_;
  std::vector<std::unique_ptr<TcpListener>> listeners_;  // one per shard
  AcceptCallback on_accept_;
  std::uint16_t port_ = 0;
};

}  // namespace gill::net
