#include "collector/sharded.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

namespace gill::collect {

namespace {
Timestamp wall_clock_seconds() {
  return static_cast<Timestamp>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ShardedPlatform::ShardedPlatform(ShardedPlatformConfig config)
    : config_(std::move(config)),
      clock_(config_.clock ? config_.clock : wall_clock_seconds),
      rss_probe_(config_.platform.overload.memory_probe
                     ? config_.platform.overload.memory_probe
                     : process_rss_bytes),
      registry_(config_.platform.registry ? config_.platform.registry
                                          : &metrics::default_registry()),
      shards_(config_.shards),
      listener_(shards_, registry_),
      governor_(config_.accept_rate > 0
                    ? std::make_unique<net::SharedAcceptGovernor>(
                          config_.accept_rate, /*burst=*/0, registry_)
                    : nullptr),
      refreshes_(registry_->counter(
          "gill_collector_filter_refreshes_total",
          "Filter refreshes installed fleet-wide: per-shard mirrors "
          "stable-merged into one pipeline run")),
      refreshes_deferred_(registry_->counter(
          "gill_overload_refreshes_deferred_total",
          "Due filter refreshes deferred while a shard was degraded")),
      purged_updates_(registry_->counter(
          "gill_collector_mirror_purged_updates_total",
          "Mirrored updates dropped because their peer was quarantined")),
      cache_hits_(registry_->counter(
          "gill_collector_score_cache_hits_total",
          "Pairwise VP scores served from the cross-refresh cache")),
      cache_misses_(registry_->counter(
          "gill_collector_score_cache_misses_total",
          "Pairwise VP scores recomputed (cache miss or stale epoch)")),
      refresh_duration_us_(registry_->histogram(
          "gill_collector_filter_refresh_duration_us",
          "Wall-clock microseconds from a refresh's harvest to its result")),
      merged_updates_(registry_->counter(
          "gill_sharded_merged_updates_total",
          "Updates harvested from per-shard mirrors into merged streams")),
      stream_drained_(registry_->counter(
          "gill_sharded_stream_drained_total",
          "Updates fanned out of the per-shard stream outboxes")),
      shard_gauge_(registry_->gauge("gill_sharded_shards",
                                    "Ingest shards (loops/threads)")) {
  states_.reserve(shards_.size());
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    auto state = std::make_unique<ShardState>();
    PlatformConfig shard_config = config_.platform;
    shard_config.registry = registry_;
    shard_config.metric_labels.emplace_back("shard", std::to_string(shard));
    shard_config.vp_allocator = [this] {
      return next_vp_.fetch_add(1, std::memory_order_relaxed);
    };
    // One global memory reading per control tick: every shard's watermark
    // sees the SAME number, so degraded mode engages fleet-wide instead of
    // shedding on one shard while another keeps admitting.
    shard_config.overload.memory_probe = [this] {
      return rss_bytes_.load(std::memory_order_relaxed);
    };
    state->platform = std::make_unique<Platform>(std::move(shard_config));
    states_.push_back(std::move(state));
  }
  shard_gauge_.set(static_cast<double>(shards_.size()));
}

ShardedPlatform::~ShardedPlatform() {
  stop();
  if (job_.valid()) job_.wait();  // the job reads config_ and a histogram
}

bool ShardedPlatform::listen(const std::string& host, std::uint16_t port) {
  return listener_.listen(
      host, port,
      [this](std::size_t shard, int fd, std::string peer_ip, std::uint16_t) {
        accept_session(shard, fd, peer_ip);
      });
}

void ShardedPlatform::accept_session(std::size_t shard, int fd,
                                     const std::string& peer_ip) {
  // Runs on the owning shard's thread. Admission is the only global part:
  // the peer cap and the accept governor must see the whole fleet.
  if (total_peers_.load(std::memory_order_relaxed) >= config_.max_peers) {
    ::close(fd);
    return;
  }
  if (governor_ != nullptr &&
      !governor_->admit(peer_ip, shards_.loop(shard).now_ms())) {
    ::close(fd);
    return;
  }
  auto transport = std::make_unique<net::TcpTransport>(
      shards_.loop(shard), net::Role::kDaemonSide, registry_);
  auto* raw = transport.get();
  raw->set_ingest_limits(config_.ingest_limits);
  raw->adopt(fd);
  ShardState& state = *states_[shard];
  const VpId vp =
      state.platform->add_remote_peer(/*peer_as=*/0, now(),
                                      std::move(transport));
  if (config_.rib_dump_interval > 0) {
    state.platform->daemon_mut(vp).enable_rib_dumps(config_.rib_dump_interval);
  }
  state.transports[vp] = raw;
  total_peers_.fetch_add(1, std::memory_order_relaxed);
  if (config_.on_session) config_.on_session(shard, vp, peer_ip);
}

bool ShardedPlatform::dial(const std::string& host, std::uint16_t port,
                           bgp::AsNumber asn) {
  const std::size_t shard = next_dial_shard_++ % shards_.size();
  // The transport registers with the shard's loop, so the whole dial runs
  // on the owning thread (inline before start(), posted after).
  return shards_.call(shard, [this, shard, &host, port, asn]() -> bool {
    auto transport = std::make_unique<net::TcpTransport>(
        shards_.loop(shard), net::Role::kDaemonSide, registry_);
    auto* raw = transport.get();
    raw->set_ingest_limits(config_.ingest_limits);
    if (!raw->dial(host, port)) return false;
    ShardState& state = *states_[shard];
    const VpId vp =
        state.platform->add_dialed_peer(asn, now(), std::move(transport));
    if (config_.rib_dump_interval > 0) {
      state.platform->daemon_mut(vp).enable_rib_dumps(
          config_.rib_dump_interval);
    }
    state.transports[vp] = raw;
    total_peers_.fetch_add(1, std::memory_order_relaxed);
    return true;
  });
}

void ShardedPlatform::set_archive(mrt::Sink* sink) {
  archive_ = sink;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    shards_.call(shard,
                 [this, shard, sink] { states_[shard]->platform->set_archive(sink); });
  }
}

void ShardedPlatform::set_stream_publisher(
    std::function<void(const bgp::Update&)> publisher) {
  publisher_ = std::move(publisher);
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    shards_.call(shard, [this, shard] {
      ShardState* state = states_[shard].get();
      if (!publisher_) {
        state->platform->set_stream_publisher(nullptr);
        return;
      }
      state->platform->set_stream_publisher([state](const bgp::Update& update) {
        const std::lock_guard<std::mutex> lock(state->outbox_mutex);
        state->outbox.push_back(update);
      });
    });
  }
}

void ShardedPlatform::start(std::uint64_t tick_ms) {
  if (running()) return;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    shards_.loop(shard).call_every(tick_ms,
                                   [this, shard] { step_shard(shard); });
  }
  shards_.start();
}

void ShardedPlatform::stop() { shards_.stop(); }

void ShardedPlatform::step_shard(std::size_t shard) {
  ShardState& state = *states_[shard];
  state.platform->step(now());
  for (auto& [vp, transport] : state.transports) transport->sync();
}

void ShardedPlatform::control_tick(Timestamp now) {
  rss_bytes_.store(rss_probe_(), std::memory_order_relaxed);
  drain_stream();
  poll_refresh();
  if (!last_refresh_) last_refresh_ = now;  // the first period starts here
  if (config_.component1_refresh == 0 || refresh_in_flight() ||
      now - *last_refresh_ < config_.component1_refresh) {
    return;
  }
  if (degraded()) {
    // The pipeline rerun is the most expensive thing we do: defer it while
    // memory is high. The period is not restarted, so the refresh stays due
    // and runs at the first tick after recovery; the mirrors keep
    // accumulating meanwhile.
    if (!refresh_deferred_) refreshes_deferred_.inc();
    refresh_deferred_ = true;
    return;
  }
  refresh_filters(now);
}

void ShardedPlatform::drain_stream() {
  if (!publisher_) return;
  std::vector<bgp::Update> batch;
  for (auto& state : states_) {
    {
      const std::lock_guard<std::mutex> lock(state->outbox_mutex);
      batch.swap(state->outbox);
    }
    for (const auto& update : batch) publisher_(update);
    stream_drained_.inc(batch.size());
    batch.clear();
  }
}

std::size_t ShardedPlatform::peer_count() const {
  std::size_t total = 0;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    total += peer_count(shard);
  }
  return total;
}

std::size_t ShardedPlatform::peer_count(std::size_t shard) const {
  return shards_.call(shard, [this, shard] {
    return states_[shard]->platform->peer_count();
  });
}

HealthSnapshot ShardedPlatform::health_snapshot() const {
  HealthSnapshot merged;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    HealthSnapshot part = shards_.call(shard, [this, shard] {
      return states_[shard]->platform->health_snapshot();
    });
    merged.quarantined += part.quarantined;
    merged.shed += part.shed;
    merged.peers.insert(merged.peers.end(), part.peers.begin(),
                        part.peers.end());
  }
  std::sort(merged.peers.begin(), merged.peers.end(),
            [](const PeerHealthEntry& a, const PeerHealthEntry& b) {
              return a.vp < b.vp;
            });
  return merged;
}

bool ShardedPlatform::degraded() const {
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    const bool is = shards_.call(shard, [this, shard] {
      return states_[shard]->platform->degraded();
    });
    if (is) return true;
  }
  return false;
}

std::size_t ShardedPlatform::stored_updates() const {
  std::size_t total = 0;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    total += shards_.call(shard, [this, shard] {
      return states_[shard]->platform->stored_updates();
    });
  }
  return total;
}

bgp::UpdateStream ShardedPlatform::take_merged_mirror() {
  bgp::UpdateStream merged;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    bgp::UpdateStream part = shards_.call(shard, [this, shard] {
      return states_[shard]->platform->take_mirror();
    });
    for (auto& update : part.updates()) merged.push(std::move(update));
  }
  // The determinism contract: each VP lives on exactly one shard and each
  // shard mirror preserves arrival order, so a STABLE sort by (time, vp)
  // keeps per-VP order and breaks cross-VP ties by id — the result is
  // byte-identical for any shard count.
  auto& updates = merged.updates();
  std::stable_sort(updates.begin(), updates.end(),
                   [](const bgp::Update& a, const bgp::Update& b) {
                     return a.time != b.time ? a.time < b.time : a.vp < b.vp;
                   });
  merged_updates_.inc(updates.size());
  return merged;
}

bgp::UpdateStream ShardedPlatform::merged_rib_dump(Timestamp time) const {
  bgp::UpdateStream merged;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    bgp::UpdateStream part = shards_.call(shard, [this, shard, time] {
      Platform& platform = *states_[shard]->platform;
      bgp::UpdateStream out;
      for (const auto& entry : platform.health_snapshot().peers) {
        out.append(platform.daemon_of(entry.vp).rib().dump(entry.vp, time));
      }
      return out;
    });
    merged.append(part);
  }
  merged.sort();  // total order by (time, vp, prefix): shard-count-invariant
  return merged;
}

void ShardedPlatform::refresh_filters(Timestamp now) {
  if (refresh_in_flight()) return;  // one job at a time; its window is its own
  last_refresh_ = now;
  refresh_deferred_ = false;
  std::vector<VpId> quarantined;
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    std::vector<VpId> part = shards_.call(shard, [this, shard] {
      return states_[shard]->platform->quarantined_vps();
    });
    quarantined.insert(quarantined.end(), part.begin(), part.end());
  }
  bgp::UpdateStream mirror = take_merged_mirror();
  if (mirror.empty()) return;

  // The job owns its inputs (merged window, quarantine roster, a copy of
  // the score cache); of the platform it reads only config_ and the
  // duration histogram, so the control thread keeps running meanwhile.
  par::ThreadPool* pool =
      par::serial_forced() ? nullptr : config_.analysis_pool;
  auto job = [this, pool, mirror = std::move(mirror),
              quarantined = std::move(quarantined), cache = score_cache_,
              started = std::chrono::steady_clock::now()]() mutable {
    FilterRefresh refresh =
        compute_refresh(std::move(mirror), quarantined,
                        config_.platform.gill, pool, std::move(cache));
    refresh_duration_us_.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count()));
    return refresh;
  };
  if (pool == nullptr) {
    install(job());
    return;
  }
  job_ = pool->submit(std::move(job));
}

void ShardedPlatform::install(FilterRefresh refresh) {
  refreshes_.inc();
  purged_updates_.inc(refresh.purged);
  // score_cache_ is the copy the job started from: the difference is this
  // refresh's share of the cache's lifetime counters.
  cache_hits_.inc(refresh.cache.hits - score_cache_.hits);
  cache_misses_.inc(refresh.cache.misses - score_cache_.misses);
  filters_ = std::move(refresh.filters);
  anchors_ = std::move(refresh.anchors);
  score_cache_ = std::move(refresh.cache);
  ++generation_;
  // Every shard adopts the identical result: the fleet filters exactly as
  // one unsharded platform would.
  for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
    shards_.call(shard, [this, shard] {
      states_[shard]->platform->install_filters(filters_, anchors_);
    });
  }
}

void ShardedPlatform::poll_refresh() {
  if (refresh_in_flight() && job_.wait_for(std::chrono::seconds(0)) ==
                                 std::future_status::ready) {
    install(job_.get());
  }
}

void ShardedPlatform::wait_for_refresh() {
  if (refresh_in_flight()) install(job_.get());
}

}  // namespace gill::collect
