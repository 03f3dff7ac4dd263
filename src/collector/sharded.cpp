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
      bmp_listener_(loop_, registry_),
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
  platform_.set_stream_publisher(
      [this](const bgp::Update& update) { push_stream(update); });
}

ShardedPlatform::~ShardedPlatform() {
  stop();
  if (job_.valid()) job_.wait();  // the job reads config_ and a histogram
}

bool ShardedPlatform::listen(const std::string& host, std::uint16_t port) {
  return listen_on(listener_, host, port, &ShardedPlatform::accept_session);
}

bool ShardedPlatform::listen_bmp(const std::string& host,
                                 std::uint16_t port) {
  return listen_on(bmp_listener_, host, port, &ShardedPlatform::accept_bmp);
}

bool ShardedPlatform::listen_on(
    net::TcpListener& listener, const std::string& host, std::uint16_t port,
    std::optional<VpId> (ShardedPlatform::*accept)(int fd)) {
  auto on_accept = [this, accept](int fd, std::string peer_ip,
                                  std::uint16_t) {
    // One admission for sessions and feeds alike: the live-connection cap,
    // then the per-source accept governor.
    if (platform_.connection_count() >= config_.max_peers ||
        (governor_ && !governor_->admit(peer_ip, loop_.now_ms()))) {
      ::close(fd);
      return;
    }
    const std::optional<VpId> vp = (this->*accept)(fd);
    if (vp && config_.on_session) config_.on_session(*vp, peer_ip);
  };
  return call([&] { return listener.listen(host, port, on_accept); });
}

std::unique_ptr<net::TcpTransport> ShardedPlatform::policed_transport() {
  auto transport = std::make_unique<net::TcpTransport>(
      loop_, net::Role::kDaemonSide, registry_);
  transport->set_ingest_limits(config_.ingest_limits);
  return transport;
}

std::optional<VpId> ShardedPlatform::accept_session(int fd) {
  if (!platform_.session_labels_left()) {
    ::close(fd);
    return std::nullopt;
  }
  auto transport = policed_transport();
  auto& raw = *transport;
  raw.adopt(fd);
  const VpId vp =
      platform_.add_remote_peer(/*peer_as=*/0, now(), std::move(transport));
  watch(vp, raw);
  arm_rib_dumps(vp);
  return vp;
}

std::optional<VpId> ShardedPlatform::accept_bmp(int fd) {
  auto transport = policed_transport();
  auto& raw = *transport;
  raw.adopt(fd);
  const VpId vp = platform_.add_bmp_feed(now(), std::move(transport));
  watch(vp, raw);
  return vp;
}

void ShardedPlatform::watch(VpId vp, net::TcpTransport& transport) {
  // Decode on arrival: the readable event that queued the bytes polls the
  // session or feeds the BMP decoder, on the ingest thread. The tick keeps
  // only the timers.
  transport.set_on_inbound([this, vp] { platform_.poll_peer(vp, now()); });
}

void ShardedPlatform::arm_rib_dumps(VpId vp) {
  if (config_.rib_dump_interval > 0) {
    platform_.daemon_mut(vp).enable_rib_dumps(config_.rib_dump_interval);
  }
}

bool ShardedPlatform::dial(const std::string& host, std::uint16_t port,
                           bgp::AsNumber asn) {
  // The transport registers with the ingest loop, so the whole dial runs
  // on the ingest thread (inline before start(), posted after).
  return call([&]() -> bool {
    auto transport = policed_transport();
    auto* raw = transport.get();
    if (!raw->dial(host, port)) return false;
    const VpId vp =
        platform_.add_dialed_peer(asn, now(), std::move(transport));
    watch(vp, *raw);
    arm_rib_dumps(vp);
    return true;
  });
}

void ShardedPlatform::set_archive(mrt::Sink* sink) {
  call([this, sink] { platform_.set_archive(sink); });
}

void ShardedPlatform::push_stream(const bgp::Update& update) {
  if (!streaming_) return;
  const std::lock_guard<std::mutex> lock(outbox_mutex_);
  outbox_.push_back(update);
}

void ShardedPlatform::set_stream_publisher(StreamPublisher publisher) {
  publisher_ = std::move(publisher);
  call([this, streaming = publisher_ != nullptr] { streaming_ = streaming; });
}

void ShardedPlatform::start(std::uint64_t tick_ms) {
  if (running()) return;
  loop_.call_every(tick_ms, [this] { platform_.step(now()); });
  thread_ = std::thread([this] { loop_.run(); });
}

void ShardedPlatform::stop() {
  if (!running()) return;
  // Posted rather than flagged: run() clears the stop flag on entry, so a
  // stop() racing the thread's first iteration would otherwise be lost.
  loop_.post([this] { loop_.stop(); });
  thread_.join();
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
    // and runs at the first tick after recovery; the sessions' updates keep
    // accumulating in the mirror meanwhile (BMP feeds' skip it).
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

void ShardedPlatform::refresh_filters(Timestamp now) {
  if (refresh_in_flight()) return;  // one job at a time; its window is its own
  last_refresh_ = now;
  refresh_deferred_ = false;
  Harvest harvest = call([this] { return platform_.harvest(); });
  merged_updates_.inc(harvest.mirror.size());
  if (harvest.mirror.empty()) return;

  // The job owns its inputs (the harvested window and the quarantine
  // roster); of the platform it reads only config_ and the duration
  // histogram, so the control thread keeps running meanwhile.
  par::ThreadPool* pool = config_.analysis_pool;
  auto job = [this, pool, harvest = std::move(harvest),
              started = std::chrono::steady_clock::now()]() mutable {
    FilterRefresh refresh =
        compute_refresh(std::move(harvest), config_.platform.gill, pool);
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
  call([this, &refresh] {
    platform_.install_filters(std::move(refresh.filters),
                              std::move(refresh.anchors));
  });
}

std::uint64_t ShardedPlatform::filter_generation() const {
  return call([this] { return platform_.filter_generation(); });
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
