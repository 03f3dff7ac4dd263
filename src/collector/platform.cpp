#include "collector/platform.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "feed/json.hpp"

namespace gill::collect {

std::string_view to_string(PeerStatus status) noexcept {
  switch (status) {
    case PeerStatus::kHealthy: return "healthy";
    case PeerStatus::kBackoff: return "backoff";
    case PeerStatus::kQuarantined: return "quarantined";
    case PeerStatus::kShed: return "shed";
  }
  return "?";
}

namespace {

/// Default memory probe: resident set size in bytes, via /proc/self/statm.
std::size_t process_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total = 0;
  unsigned long resident = 0;
  const int fields = std::fscanf(f, "%lu %lu", &total, &resident);
  std::fclose(f);
  if (fields != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace

Platform::PlatformCounters::PlatformCounters(metrics::Registry& registry)
    : mirrored_updates(registry.counter(
          "gill_collector_mirrored_updates_total",
          "Updates mirrored into the sampling buffer")),
      quarantines(registry.counter("gill_collector_quarantines_total",
                                   "Peers entering quarantine")),
      sheds(registry.counter(
          "gill_overload_sheds_total",
          "Peers frozen by the memory-watermark degraded mode")),
      readmits(registry.counter(
          "gill_overload_readmits_total",
          "Shed peers re-admitted after memory recovered")),
      peers(registry.gauge("gill_collector_peers",
                           "Peering sessions managed by the platform")),
      quarantined_peers(registry.gauge(
          "gill_collector_quarantined_peers",
          "Peers currently frozen by the quarantine policy")),
      degraded(registry.gauge(
          "gill_overload_degraded",
          "1 while the memory watermark holds the platform degraded")),
      memory_bytes(registry.gauge(
          "gill_overload_memory_bytes",
          "Last memory-probe reading (process RSS by default)")),
      shed_peers(registry.gauge(
          "gill_overload_shed_peers",
          "Peers currently frozen by overload shedding")) {}

Platform::Platform(PlatformConfig config)
    : config_(std::move(config)),
      own_registry_(config_.registry ? nullptr
                                     : std::make_unique<metrics::Registry>()),
      registry_(config_.registry ? config_.registry : own_registry_.get()),
      counters_(*registry_) {}

VpId Platform::add_peer(bgp::AsNumber peer_as, Timestamp now) {
  return add_peer_internal(peer_as, now, std::make_unique<daemon::Transport>(),
                           /*make_fake_peer=*/true, /*arm_retry=*/true);
}

VpId Platform::add_faulty_peer(bgp::AsNumber peer_as, Timestamp now,
                               const daemon::FaultProfile& profile) {
  auto varied = profile;
  // De-correlate the fault streams of concurrent sessions.
  varied.seed ^= 0xD1B54A32D192ED03ULL * (labels_.next_session() + 1);
  return add_peer_internal(peer_as, now,
                           std::make_unique<daemon::FaultyTransport>(varied),
                           /*make_fake_peer=*/true, /*arm_retry=*/true);
}

VpId Platform::add_remote_peer(bgp::AsNumber peer_as, Timestamp now,
                               std::unique_ptr<daemon::Transport> transport) {
  // No retry policy: our side of an accepted socket cannot re-dial the
  // remote router; the remote re-establishes and the listener hands us a
  // fresh transport.
  return add_peer_internal(peer_as, now, std::move(transport),
                           /*make_fake_peer=*/false, /*arm_retry=*/false);
}

VpId Platform::add_dialed_peer(bgp::AsNumber peer_as, Timestamp now,
                               std::unique_ptr<daemon::Transport> transport) {
  // Outbound session: we dialed, so the transport's reconnect() re-dials
  // and the daemon's retry policy can drive re-establishment.
  return add_peer_internal(peer_as, now, std::move(transport),
                           /*make_fake_peer=*/false, /*arm_retry=*/true);
}

VpId Platform::add_bmp_feed(Timestamp now,
                            std::unique_ptr<daemon::Transport> transport) {
  const VpId vp = labels_.take_bmp();
  BmpFeed feed{std::move(transport),
               std::make_unique<daemon::BmpIngest>(vp, &filters_, archive_,
                                                   registry_)};
  feed.ingest->set_mirror([this](const bgp::Update& update) { tap(update); });
  feed.ingest->set_peer_labels([this] { return labels_.take_bmp(); });
  // Whatever the transport already holds is decoded now.
  feed_bmp(bmp_feeds_.emplace(vp, std::move(feed)).first->second, now);
  return vp;
}

std::size_t Platform::stored_updates() const {
  std::size_t total = dropped_feeds_stored_;
  for (const auto& [vp, peer] : peers_) {
    total += peer.daemon->stats().updates_stored;
  }
  for (const auto& [vp, feed] : bmp_feeds_) {
    total += feed.ingest->stats().updates_stored;
  }
  return total;
}

std::size_t Platform::connection_count() const noexcept {
  std::size_t open = 0;
  for (const auto& [vp, peer] : peers_) {
    if (peer.transport->connected()) ++open;
  }
  for (const auto& [vp, feed] : bmp_feeds_) {
    if (feed.transport->connected()) ++open;
  }
  return open;
}

void Platform::set_archive(mrt::Sink* archive) {
  archive_ = archive;
  for (auto& [vp, peer] : peers_) peer.daemon->set_archive(archive);
  for (auto& [vp, feed] : bmp_feeds_) feed.ingest->set_archive(archive);
}

void Platform::tap(const bgp::Update& update) {
  if (excluded(update.vp)) return;  // a degraded feed must not poison sampling
  // A BMP feed cannot be shed, so while degraded it leaves the mirror
  // alone: the mirror stops growing until memory recovers and the held
  // refresh harvests it. Its updates still reach the stream.
  if (!degraded_ || update.vp < kFirstBmpVp) {
    mirror_.push(update);
    counters_.mirrored_updates.inc();
  }
  if (stream_publisher_) stream_publisher_(update);
}

VpId Platform::add_peer_internal(
    bgp::AsNumber peer_as, Timestamp now,
    std::unique_ptr<daemon::Transport> transport, bool make_fake_peer,
    bool arm_retry) {
  const VpId vp = labels_.take_session();
  Peer peer;
  peer.vp = vp;
  peer.as = peer_as;
  peer.transport = std::move(transport);
  peer.daemon = std::make_unique<daemon::BgpDaemon>(
      vp, config_.local_as, *peer.transport, &filters_, nullptr, registry_);
  peer.daemon->set_graceful_restart(config_.gr);
  if (archive_ != nullptr) peer.daemon->set_archive(archive_);
  peer.daemon->set_mirror([this](const bgp::Update& update) { tap(update); });
  if (arm_retry) {
    auto retry = config_.retry;
    retry.jitter_seed ^= 0x9E3779B97F4A7C15ULL * (vp + 1);
    peer.daemon->set_retry_policy(retry);
  }
  if (make_fake_peer) {
    peer.remote =
        std::make_unique<daemon::FakePeer>(peer_as, *peer.transport);
  }
  peer.daemon->start(now);
  peer.last_state = peer.daemon->state();
  peers_.emplace(vp, std::move(peer));
  counters_.peers.set(static_cast<double>(peers_.size()));
  return vp;
}

void Platform::step(Timestamp now) {
  update_overload(now);
  for (auto& [vp, peer] : peers_) {
    auto& health = peer.health;
    if (health.status == PeerStatus::kShed) {
      continue;  // frozen by overload shedding: no reads, no reconnects
    }
    if (health.status == PeerStatus::kQuarantined) {
      if (config_.health.quarantine_duration > 0 &&
          now - health.quarantined_at >= config_.health.quarantine_duration) {
        health.status = PeerStatus::kBackoff;  // released; session still down
        health.recent_flaps.clear();
        counters_.quarantined_peers.sub(1.0);
      } else {
        continue;  // frozen: no polling, no reconnect attempts
      }
    }
    if (peer.remote) peer.remote->poll();
    peer.daemon->poll(now);
    peer.daemon->tick(now);
    observe_health(peer, now);
  }
  // In-memory feeds have no inbound hook: their bytes wait for the step.
  for (auto& [vp, feed] : bmp_feeds_) feed_bmp(feed, now);
  for (auto& [vp, peer] : peers_) peer.transport->sync();
  // A feed's socket closes inside its own readable event, whose hook must
  // not destroy the transport: the step drops it.
  std::erase_if(bmp_feeds_, [this](const auto& entry) {
    const BmpFeed& feed = entry.second;
    if (feed.transport->connected()) return false;
    dropped_feeds_stored_ += feed.ingest->stats().updates_stored;
    return true;
  });
  for (auto& [vp, feed] : bmp_feeds_) feed.transport->sync();
  if (archive_ != nullptr) archive_->tick(now);
}

void Platform::feed_bmp(BmpFeed& feed, Timestamp now) {
  const auto bytes = feed.transport->to_daemon.peek();
  if (bytes.empty()) return;
  feed.ingest->feed(bytes, now);
  feed.transport->to_daemon.consume(bytes.size());
}

void Platform::poll_peer(VpId vp, Timestamp now) {
  if (const auto feed = bmp_feeds_.find(vp); feed != bmp_feeds_.end()) {
    feed_bmp(feed->second, now);
    return;
  }
  const auto it = peers_.find(vp);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  // Frozen peers stay frozen: their bytes wait in the transport queue,
  // whose watermark then pauses the socket. A quarantine is released by
  // step(), never here.
  if (peer.health.status == PeerStatus::kShed ||
      peer.health.status == PeerStatus::kQuarantined) {
    return;
  }
  peer.daemon->poll(now);
  observe_health(peer, now);
}

void Platform::update_overload(Timestamp now) {
  (void)now;
  const auto& policy = config_.overload;
  if (policy.mem_high_watermark == 0) return;
  const std::size_t used =
      policy.memory_probe ? policy.memory_probe() : process_rss_bytes();
  counters_.memory_bytes.set(static_cast<double>(used));
  const std::size_t low = policy.mem_low_watermark > 0
                              ? policy.mem_low_watermark
                              : policy.mem_high_watermark / 8 * 7;
  if (!degraded_ && used >= policy.mem_high_watermark) enter_degraded();
  if (degraded_ && used >= policy.mem_high_watermark) {
    shed_peers(policy.shed_per_step);
  }
  if (degraded_ && used <= low) exit_degraded();
}

void Platform::enter_degraded() {
  degraded_ = true;
  counters_.degraded.set(1);
  for (auto& [vp, peer] : peers_) peer.daemon->set_defer_rib_dumps(true);
}

void Platform::exit_degraded() {
  degraded_ = false;
  counters_.degraded.set(0);
  for (auto& [vp, peer] : peers_) {
    peer.daemon->set_defer_rib_dumps(false);
    if (peer.health.status == PeerStatus::kShed) {
      // Re-admit: the session is still down (we stopped driving it); the
      // normal backoff/reconnect machinery takes over next step.
      peer.health.status = PeerStatus::kBackoff;
      peer.last_state = peer.daemon->state();
      counters_.readmits.inc();
      counters_.shed_peers.sub(1.0);
    }
  }
}

void Platform::shed_peers(std::size_t count) {
  const std::size_t cap = static_cast<std::size_t>(
      config_.overload.max_shed_fraction * static_cast<double>(peers_.size()));
  const std::unordered_set<VpId> anchor_set(anchors_.begin(), anchors_.end());
  for (std::size_t n = 0; n < count; ++n) {
    if (shed_count() >= cap) return;
    // Shed the lowest-volume feed first: losing it costs the least data,
    // mirroring the VP ranking the sampling pipeline already encodes.
    Peer* victim = nullptr;
    std::size_t victim_updates = 0;
    for (auto& [vp, peer] : peers_) {
      if (peer.health.status != PeerStatus::kHealthy &&
          peer.health.status != PeerStatus::kBackoff) {
        continue;
      }
      if (anchor_set.contains(vp)) continue;  // anchors are always stored
      const std::size_t updates = peer.daemon->stats().updates_received;
      if (victim == nullptr || updates < victim_updates) {
        victim = &peer;
        victim_updates = updates;
      }
    }
    if (victim == nullptr) return;
    victim->health.status = PeerStatus::kShed;
    counters_.sheds.inc();
    counters_.shed_peers.add(1.0);
  }
}

std::size_t Platform::shed_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [vp, peer] : peers_) {
    if (peer.health.status == PeerStatus::kShed) ++n;
  }
  return n;
}

void Platform::observe_health(Peer& peer, Timestamp now) {
  using daemon::SessionState;
  const SessionState state = peer.daemon->state();
  auto& health = peer.health;
  const bool flapped =
      peer.last_state != SessionState::kIdle && state == SessionState::kIdle;
  peer.last_state = state;
  if (flapped) {
    ++health.flaps;
    health.recent_flaps.push_back(now);
    while (!health.recent_flaps.empty() &&
           now - health.recent_flaps.front() > config_.health.flap_window) {
      health.recent_flaps.pop_front();
    }
    if (health.recent_flaps.size() >= config_.health.flap_threshold) {
      health.status = PeerStatus::kQuarantined;
      health.quarantined_at = now;
      ++health.quarantines;
      health.recent_flaps.clear();
      counters_.quarantines.inc();
      counters_.quarantined_peers.add(1.0);
      return;
    }
  }
  health.status = state == SessionState::kEstablished ? PeerStatus::kHealthy
                                                      : PeerStatus::kBackoff;
}

std::size_t Platform::quarantined_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [vp, peer] : peers_) {
    if (peer.health.status == PeerStatus::kQuarantined) ++n;
  }
  return n;
}

HealthSnapshot Platform::health_snapshot() const {
  HealthSnapshot snapshot;
  snapshot.peers.reserve(peers_.size());
  for (const auto& [vp, peer] : peers_) {
    PeerHealthEntry entry;
    entry.vp = vp;
    // Remote peers may register with AS 0 (unknown until their OPEN).
    entry.as = peer.as != 0 ? peer.as : peer.daemon->peer_as();
    entry.status = peer.health.status;
    entry.session = peer.daemon->state();
    entry.flaps = peer.health.flaps;
    entry.recent_flaps = peer.health.recent_flaps.size();
    entry.quarantines = peer.health.quarantines;
    if (entry.status == PeerStatus::kShed) ++snapshot.shed;
    if (entry.status == PeerStatus::kQuarantined) {
      ++snapshot.quarantined;
      entry.quarantined_at = peer.health.quarantined_at;
      if (config_.health.quarantine_duration > 0) {
        entry.quarantine_release_at =
            peer.health.quarantined_at + config_.health.quarantine_duration;
      }
    }
    snapshot.peers.push_back(entry);
  }
  return snapshot;
}

std::string to_json(const HealthSnapshot& snapshot) {
  feed::JsonArray sessions;
  for (const auto& peer : snapshot.peers) {
    feed::JsonObject entry;
    entry["vp"] = static_cast<std::int64_t>(peer.vp);
    entry["as"] = static_cast<std::int64_t>(peer.as);
    entry["status"] = std::string(to_string(peer.status));
    entry["session"] = std::string(daemon::to_string(peer.session));
    entry["flaps"] = static_cast<std::int64_t>(peer.flaps);
    entry["recent_flaps"] = static_cast<std::int64_t>(peer.recent_flaps);
    entry["quarantines"] = static_cast<std::int64_t>(peer.quarantines);
    if (peer.status == PeerStatus::kQuarantined) {
      entry["quarantined_at"] = static_cast<std::int64_t>(peer.quarantined_at);
      if (peer.quarantine_release_at != 0) {
        entry["quarantine_release_at"] =
            static_cast<std::int64_t>(peer.quarantine_release_at);
      }
    }
    sessions.emplace_back(std::move(entry));
  }
  feed::JsonObject root;
  root["peers"] = static_cast<std::int64_t>(snapshot.peers.size());
  root["quarantined"] = static_cast<std::int64_t>(snapshot.quarantined);
  root["shed"] = static_cast<std::int64_t>(snapshot.shed);
  root["sessions"] = std::move(sessions);
  return feed::Json(std::move(root)).dump();
}

FilterRefresh compute_refresh(Harvest harvest, const sample::GillConfig& gill,
                              par::ThreadPool* pool) {
  FilterRefresh refresh;
  bgp::UpdateStream& mirror = harvest.mirror;
  if (!harvest.quarantined.empty()) {
    const std::unordered_set<VpId> bad(harvest.quarantined.begin(),
                                       harvest.quarantined.end());
    bgp::UpdateStream kept;
    for (const auto& update : mirror) {
      if (!bad.contains(update.vp)) kept.push(update);
    }
    refresh.purged = mirror.size() - kept.size();
    mirror = std::move(kept);
  }
  mirror.sort();
  sample::PipelineRuntime runtime;
  runtime.pool = pool;
  auto result = sample::run_gill_pipeline(bgp::UpdateStream{}, mirror, {},
                                          gill, runtime);
  refresh.filters = std::move(result.filters);
  refresh.anchors = std::move(result.anchors);
  return refresh;
}

void Platform::refresh_filters(par::ThreadPool* pool) {
  FilterRefresh refresh = compute_refresh(harvest(), config_.gill, pool);
  install_filters(std::move(refresh.filters), std::move(refresh.anchors));
}

Harvest Platform::harvest() {
  Harvest harvest{std::move(mirror_), {}};
  mirror_ = bgp::UpdateStream{};
  for (const auto& [vp, peer] : peers_) {
    if (peer.health.status == PeerStatus::kQuarantined) {
      harvest.quarantined.push_back(vp);
    }
  }
  return harvest;
}

void Platform::install_filters(filt::FilterTable filters,
                               std::vector<VpId> anchors) {
  // Daemons and BMP decoders hold a pointer to filters_ and read it only
  // between polls, so the swap must run on the thread that owns this
  // platform.
  filters_ = std::move(filters);
  anchors_ = std::move(anchors);
  ++generation_;
}

std::string filter_document(const filt::FilterTable& filters) {
  std::string doc =
      "# GILL published filters\n"
      "# Users can infer which BGP updates are discarded and possibly\n"
      "# missing in the database.\n";
  doc += filters.describe();
  return doc;
}

std::string anchor_document(const std::vector<VpId>& anchors) {
  std::string doc =
      "# GILL anchor VPs\n"
      "# All updates from these VPs are processed and stored.\n";
  for (const VpId vp : anchors) {
    doc += "vp" + std::to_string(vp) + "\n";
  }
  return doc;
}

// ---------------------------------------------------------------------------
// Growth model (Fig. 2 / Fig. 3).
// ---------------------------------------------------------------------------

double GrowthModel::internet_ases(double year) {
  // ~16k ASes in 2003 growing to ~74k in 2023 (≈ 7.9%/yr compound).
  return 16000.0 * std::pow(74000.0 / 16000.0, (year - 2003.0) / 20.0);
}

double GrowthModel::vp_hosting_ases(double year) {
  // RIS+RV: ~200 hosting ASes in 2003, ~950 in 2023, roughly linear —
  // which is exactly why the coverage fraction stays flat (§2).
  return 200.0 + (950.0 - 200.0) * (year - 2003.0) / 20.0;
}

double GrowthModel::total_vps(double year) {
  // Several routers per hosting AS; ~500 VPs in 2003, ~2600 in 2023.
  return 500.0 + (2600.0 - 500.0) * (year - 2003.0) / 20.0;
}

double GrowthModel::updates_per_vp_hour(double year) {
  // Tracks announced prefixes: ~3K/h in 2003 to ~28K/h in 2023 on average
  // (Fig. 3a), superlinear late growth.
  const double t = (year - 2003.0) / 20.0;
  return 3000.0 * std::pow(28000.0 / 3000.0, t * t * 0.3 + t * 0.7);
}

double GrowthModel::total_updates_per_hour(double year) {
  // Compound effect (§3.2): more VPs x more updates per VP => quadratic.
  return total_vps(year) * updates_per_vp_hour(year);
}

}  // namespace gill::collect
