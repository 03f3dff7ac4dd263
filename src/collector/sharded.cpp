#include "collector/sharded.hpp"

#include <unistd.h>

#include <chrono>
#include <memory>
#include <utility>

namespace gill::collect {

namespace {
Timestamp wall_clock_seconds() {
  return static_cast<Timestamp>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

PlatformConfig with_registry(PlatformConfig config,
                             metrics::Registry* registry) {
  config.registry = registry;
  return config;
}
}  // namespace

ShardedPlatform::ShardedPlatform(ShardedPlatformConfig config)
    : config_(std::move(config)),
      clock_(config_.clock ? config_.clock : wall_clock_seconds),
      registry_(config_.platform.registry ? config_.platform.registry
                                          : &metrics::default_registry()),
      platform_(with_registry(config_.platform, registry_)),
      listener_(loop_, registry_),
      refreshes_(registry_->counter(
          "gill_collector_filter_refreshes_total",
          "Filter refreshes installed by the merge plane")),
      refreshes_deferred_(registry_->counter(
          "gill_overload_refreshes_deferred_total",
          "Due filter refreshes deferred while the platform was degraded")),
      purged_updates_(registry_->counter(
          "gill_collector_mirror_purged_updates_total",
          "Mirrored updates dropped because their peer was quarantined")),
      refresh_duration_us_(registry_->histogram(
          "gill_collector_filter_refresh_duration_us",
          "Wall-clock microseconds from a refresh's harvest to its result")),
      merged_updates_(registry_->counter(
          "gill_sharded_merged_updates_total",
          "Updates harvested from the ingest mirror for a refresh")),
      stream_drained_(registry_->counter(
          "gill_sharded_stream_drained_total",
          "Updates fanned out of the ingest stream outbox")) {
  if (config_.accept_rate > 0) {
    governor_.emplace(config_.accept_rate, /*burst=*/0, registry_);
  }
}

ShardedPlatform::~ShardedPlatform() {
  stop();
  if (job_.valid()) job_.wait();  // the job reads config_ and a histogram
}

bool ShardedPlatform::listen(const std::string& host, std::uint16_t port) {
  return call([&] {
    return listener_.listen(
        host, port, [this](int fd, std::string peer_ip, std::uint16_t) {
          accept_session(fd, peer_ip);
        });
  });
}

void ShardedPlatform::accept_session(int fd, const std::string& peer_ip) {
  if (platform_.peer_count() >= config_.max_peers ||
      (governor_ && !governor_->admit(peer_ip, loop_.now_ms()))) {
    ::close(fd);
    return;
  }
  auto transport = std::make_unique<net::TcpTransport>(
      loop_, net::Role::kDaemonSide, registry_);
  auto* raw = transport.get();
  raw->set_ingest_limits(config_.ingest_limits);
  raw->adopt(fd);
  const VpId vp =
      platform_.add_remote_peer(/*peer_as=*/0, now(), std::move(transport));
  watch_session(vp, *raw);
  if (config_.on_session) config_.on_session(vp, peer_ip);
}

void ShardedPlatform::watch_session(VpId vp, net::TcpTransport& transport) {
  if (config_.rib_dump_interval > 0) {
    platform_.daemon_mut(vp).enable_rib_dumps(config_.rib_dump_interval);
  }
  transports_[vp] = &transport;
  // Decode on arrival: the readable event that queued the bytes polls the
  // session, on the ingest thread. The tick keeps only the timers.
  transport.set_on_inbound([this, vp] { platform_.poll_peer(vp, now()); });
}

bool ShardedPlatform::dial(const std::string& host, std::uint16_t port,
                           bgp::AsNumber asn) {
  // The transport registers with the ingest loop, so the whole dial runs
  // on the ingest thread (inline before start(), posted after).
  return call([&]() -> bool {
    auto transport = std::make_unique<net::TcpTransport>(
        loop_, net::Role::kDaemonSide, registry_);
    auto* raw = transport.get();
    raw->set_ingest_limits(config_.ingest_limits);
    if (!raw->dial(host, port)) return false;
    const VpId vp =
        platform_.add_dialed_peer(asn, now(), std::move(transport));
    watch_session(vp, *raw);
    return true;
  });
}

void ShardedPlatform::set_archive(mrt::Sink* sink) {
  call([this, sink] { platform_.set_archive(sink); });
}

void ShardedPlatform::set_stream_publisher(StreamPublisher publisher) {
  publisher_ = std::move(publisher);
  call([this] {
    if (!publisher_) {
      platform_.set_stream_publisher(nullptr);
      return;
    }
    platform_.set_stream_publisher([this](const bgp::Update& update) {
      const std::lock_guard<std::mutex> lock(outbox_mutex_);
      outbox_.push_back(update);
    });
  });
}

void ShardedPlatform::start(std::uint64_t tick_ms) {
  if (running()) return;
  loop_.call_every(tick_ms, [this] { step(); });
  thread_ = std::thread([this] { loop_.run(); });
}

void ShardedPlatform::stop() {
  if (!running()) return;
  // Posted rather than flagged: run() clears the stop flag on entry, so a
  // stop() racing the thread's first iteration would otherwise be lost.
  loop_.post([this] { loop_.stop(); });
  thread_.join();
}

void ShardedPlatform::step() {
  platform_.step(now());
  for (auto& [vp, transport] : transports_) transport->sync();
}

void ShardedPlatform::control_tick(Timestamp now) {
  poll_refresh();
  if (!last_refresh_) last_refresh_ = now;  // the first period starts here
  if (config_.component1_refresh == 0 || refresh_in_flight() ||
      now - *last_refresh_ < config_.component1_refresh) {
    return;
  }
  if (degraded()) {
    // The pipeline rerun is the most expensive thing we do: defer it while
    // memory is high. The period is not restarted, so the refresh stays due
    // and runs at the first tick after recovery; the mirror keeps
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
  {
    const std::lock_guard<std::mutex> lock(outbox_mutex_);
    batch.swap(outbox_);
  }
  if (batch.empty()) return;
  publisher_(batch);  // the whole outbox: one flush per batch
  stream_drained_.inc(batch.size());
}

std::size_t ShardedPlatform::peer_count() const {
  return call([this] { return platform_.peer_count(); });
}

HealthSnapshot ShardedPlatform::health_snapshot() const {
  return call([this] { return platform_.health_snapshot(); });
}

bool ShardedPlatform::degraded() const {
  return call([this] { return platform_.degraded(); });
}

std::size_t ShardedPlatform::stored_updates() const {
  return call([this] { return platform_.stored_updates(); });
}

bgp::UpdateStream ShardedPlatform::take_merged_mirror() {
  bgp::UpdateStream mirror = call([this] { return platform_.take_mirror(); });
  merged_updates_.inc(mirror.size());
  return mirror;
}

bgp::UpdateStream ShardedPlatform::merged_rib_dump(Timestamp time) const {
  bgp::UpdateStream dump = call([this, time] {
    bgp::UpdateStream out;
    for (const auto& entry : platform_.health_snapshot().peers) {
      out.append(platform_.daemon_of(entry.vp).rib().dump(entry.vp, time));
    }
    return out;
  });
  dump.sort();  // total order by (time, vp, prefix)
  return dump;
}

void ShardedPlatform::refresh_filters(Timestamp now) {
  if (refresh_in_flight()) return;  // one job at a time; its window is its own
  last_refresh_ = now;
  refresh_deferred_ = false;
  std::vector<VpId> quarantined =
      call([this] { return platform_.quarantined_vps(); });
  bgp::UpdateStream mirror = take_merged_mirror();
  if (mirror.empty()) return;

  // The job owns its inputs (the harvested window and the quarantine
  // roster); of the platform it reads only config_ and the duration
  // histogram, so the control thread keeps running meanwhile.
  par::ThreadPool* pool = config_.analysis_pool;
  auto job = [this, pool, mirror = std::move(mirror),
              quarantined = std::move(quarantined),
              started = std::chrono::steady_clock::now()]() mutable {
    FilterRefresh refresh = compute_refresh(std::move(mirror), quarantined,
                                            config_.platform.gill, pool);
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
  filters_ = std::move(refresh.filters);
  anchors_ = std::move(refresh.anchors);
  ++generation_;
  call([this] { platform_.install_filters(filters_, anchors_); });
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
