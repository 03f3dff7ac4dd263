#include "net/shard.hpp"

#include <utility>

namespace gill::net {

ShardSet::ShardSet(std::size_t count, std::uint32_t granularity_ms) {
  const std::size_t n = count > 0 ? count : 1;
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(granularity_ms));
  }
}

ShardSet::~ShardSet() { stop(); }

void ShardSet::start() {
  if (running()) return;
  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back([raw = loop.get()] { raw->run(); });
  }
}

void ShardSet::stop() {
  if (!running()) return;
  // stop() is cross-thread safe (atomic flag + eventfd wake), so a loop
  // parked in epoll_wait exits its current iteration immediately.
  for (auto& loop : loops_) loop->stop();
  for (auto& thread : threads_) thread.join();
  threads_.clear();
}

void ShardSet::post(std::size_t shard, std::function<void()> task) {
  if (!running()) {
    task();
    return;
  }
  loops_[shard]->post(std::move(task));
}

ShardedListener::ShardedListener(ShardSet& shards,
                                 metrics::Registry* registry)
    : shards_(&shards), registry_(registry) {}

ShardedListener::~ShardedListener() { close(); }

bool ShardedListener::listen(const std::string& host, std::uint16_t port,
                             AcceptCallback on_accept) {
  close();
  on_accept_ = std::move(on_accept);
  // One SO_REUSEPORT listener per shard. The first bind resolves an
  // ephemeral port; the siblings must then join that exact port, so any
  // failure past the first tears the whole group down.
  for (std::size_t shard = 0; shard < shards_->size(); ++shard) {
    auto listener =
        std::make_unique<TcpListener>(shards_->loop(shard), registry_);
    const std::uint16_t bind_port = shard == 0 ? port : port_;
    if (!listener->listen(
            host, bind_port,
            [this, shard](int fd, std::string ip, std::uint16_t p) {
              on_accept_(shard, fd, std::move(ip), p);
            },
            /*backlog=*/128, /*reuse_port=*/true)) {
      close();
      return false;
    }
    port_ = listener->port();
    listeners_.push_back(std::move(listener));
  }
  return true;
}

void ShardedListener::close() {
  // Each TcpListener's fd is registered with its shard's loop; closing
  // from another thread while the fleet runs would race the loop's fd
  // table, so closes are posted (call(): post + wait) shard by shard.
  for (std::size_t shard = 0; shard < listeners_.size(); ++shard) {
    TcpListener* raw = listeners_[shard].get();
    shards_->call(shard, [raw] { raw->close(); });
  }
  listeners_.clear();
  port_ = 0;
}

}  // namespace gill::net
