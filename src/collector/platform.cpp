#include "collector/platform.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <sstream>
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

Platform::PlatformCounters::PlatformCounters(metrics::Registry& registry,
                                             const metrics::Labels& labels)
    : mirrored_updates(registry.counter(
          "gill_collector_mirrored_updates_total",
          "Updates mirrored into the sampling buffer", labels)),
      forwarded_updates(registry.counter(
          "gill_collector_forwarded_updates_total",
          "Updates pushed to operator forwarding rules (custom services)", labels)),
      quarantines(registry.counter("gill_collector_quarantines_total",
                                   "Peers entering quarantine", labels)),
      sheds(registry.counter(
          "gill_overload_sheds_total",
          "Peers frozen by the memory-watermark degraded mode", labels)),
      readmits(registry.counter(
          "gill_overload_readmits_total",
          "Shed peers re-admitted after memory recovered", labels)),
      peers(registry.gauge("gill_collector_peers",
                           "Peering sessions managed by the platform", labels)),
      quarantined_peers(registry.gauge(
          "gill_collector_quarantined_peers",
          "Peers currently frozen by the quarantine policy", labels)),
      degraded(registry.gauge(
          "gill_overload_degraded",
          "1 while the memory watermark holds the platform degraded", labels)),
      memory_bytes(registry.gauge(
          "gill_overload_memory_bytes",
          "Last memory-probe reading (process RSS by default)", labels)),
      shed_peers(registry.gauge(
          "gill_overload_shed_peers",
          "Peers currently frozen by overload shedding", labels)) {}

Platform::Platform(PlatformConfig config)
    : config_(std::move(config)),
      own_registry_(config_.registry ? nullptr
                                     : std::make_unique<metrics::Registry>()),
      registry_(config_.registry ? config_.registry : own_registry_.get()),
      counters_(*registry_, config_.metric_labels) {}

VpId Platform::add_peer(bgp::AsNumber peer_as, Timestamp now) {
  return add_peer_internal(peer_as, now, std::make_unique<daemon::Transport>(),
                           /*make_fake_peer=*/true, /*arm_retry=*/true);
}

VpId Platform::add_faulty_peer(bgp::AsNumber peer_as, Timestamp now,
                               const daemon::FaultProfile& profile) {
  auto varied = profile;
  // De-correlate the fault streams of concurrent sessions.
  varied.seed ^= 0xD1B54A32D192ED03ULL * (next_vp_ + 1);
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

std::size_t Platform::stored_updates() const {
  std::size_t total = 0;
  for (const auto& [vp, peer] : peers_) {
    total += peer.daemon->stats().updates_stored;
  }
  return total;
}

void Platform::set_archive(mrt::Sink* archive) {
  archive_ = archive;
  for (auto& [vp, peer] : peers_) peer.daemon->set_archive(archive);
}

VpId Platform::add_peer_internal(
    bgp::AsNumber peer_as, Timestamp now,
    std::unique_ptr<daemon::Transport> transport, bool make_fake_peer,
    bool arm_retry) {
  const VpId vp = config_.vp_allocator ? config_.vp_allocator() : next_vp_++;
  Peer peer;
  peer.vp = vp;
  peer.as = peer_as;
  peer.transport = std::move(transport);
  peer.daemon = std::make_unique<daemon::BgpDaemon>(
      vp, config_.local_as, *peer.transport, &filters_, nullptr, registry_);
  peer.daemon->set_graceful_restart(config_.gr);
  if (archive_ != nullptr) peer.daemon->set_archive(archive_);
  peer.daemon->set_mirror([this, vp](const bgp::Update& update) {
    if (excluded(vp)) return;  // a degraded feed must not poison sampling
    mirror_.push(update);
    counters_.mirrored_updates.inc();
    forward(update);  // §14 custom services run before any discarding
    if (stream_publisher_) stream_publisher_(update);
  });
  if (config_.auto_reconnect && arm_retry) {
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

std::string format(const HealthSnapshot& snapshot) {
  std::ostringstream out;
  out << "# GILL peer health (" << snapshot.peers.size() << " peers, "
      << snapshot.quarantined << " quarantined";
  if (snapshot.shed > 0) out << ", " << snapshot.shed << " shed";
  out << ")\n";
  for (const auto& peer : snapshot.peers) {
    out << "vp" << peer.vp << " as" << peer.as << ' '
        << to_string(peer.status) << ' ' << daemon::to_string(peer.session)
        << " flaps=" << peer.flaps << " recent=" << peer.recent_flaps
        << " quarantines=" << peer.quarantines;
    if (peer.status == PeerStatus::kQuarantined) {
      out << " since=" << peer.quarantined_at;
      if (peer.quarantine_release_at != 0) {
        out << " release_at=" << peer.quarantine_release_at;
      }
    }
    out << '\n';
  }
  return out.str();
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

FilterRefresh compute_refresh(bgp::UpdateStream mirror,
                              const std::vector<VpId>& quarantined,
                              const sample::GillConfig& gill,
                              par::ThreadPool* pool, anchor::ScoreCache cache) {
  FilterRefresh refresh;
  if (!quarantined.empty()) {
    const std::unordered_set<VpId> bad(quarantined.begin(), quarantined.end());
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
  runtime.score_cache = &cache;
  auto result = sample::run_gill_pipeline(bgp::UpdateStream{}, mirror, {},
                                          gill, runtime);
  refresh.filters = std::move(result.filters);
  refresh.anchors = std::move(result.anchors);
  refresh.cache = std::move(cache);
  return refresh;
}

void Platform::refresh_filters(par::ThreadPool* pool) {
  FilterRefresh refresh = compute_refresh(take_mirror(), quarantined_vps(),
                                          config_.gill, pool,
                                          std::move(score_cache_));
  score_cache_ = std::move(refresh.cache);
  install_filters(std::move(refresh.filters), std::move(refresh.anchors));
}

bgp::UpdateStream Platform::take_mirror() {
  bgp::UpdateStream mirror = std::move(mirror_);
  mirror_ = bgp::UpdateStream{};
  return mirror;
}

void Platform::install_filters(filt::FilterTable filters,
                               std::vector<VpId> anchors) {
  // Daemons hold a pointer to filters_ and read it only between polls, so
  // the swap must run on the thread that owns this platform.
  filters_ = std::move(filters);
  anchors_ = std::move(anchors);
  ++generation_;
}

std::vector<VpId> Platform::quarantined_vps() const {
  std::vector<VpId> vps;
  for (const auto& [vp, peer] : peers_) {
    if (peer.health.status == PeerStatus::kQuarantined) vps.push_back(vp);
  }
  return vps;
}

void Platform::add_forwarding_rule(const net::Prefix& prefix,
                                   ForwardingSink sink) {
  forwarding_rules_.emplace_back(prefix, std::move(sink));
}

void Platform::forward(const bgp::Update& update) const {
  for (const auto& [prefix, sink] : forwarding_rules_) {
    if (prefix.covers(update.prefix)) {
      counters_.forwarded_updates.inc();
      sink(update);
    }
  }
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
