#include "daemon/daemon.hpp"

#include <algorithm>
#include <cmath>

namespace gill::daemon {

namespace {
/// Dead bytes at the front of a ByteQueue buffer are reclaimed once they
/// pass this size and dominate the buffer.
constexpr std::size_t kCompactThreshold = 4096;
}  // namespace

void ByteQueue::write(std::span<const std::uint8_t> data) {
  if (head_ > 0) {
    if (head_ == buffer_.size()) {
      buffer_.clear();
      head_ = 0;
    } else if (head_ >= kCompactThreshold && head_ * 2 >= buffer_.size()) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void ByteQueue::consume(std::size_t n) noexcept {
  head_ += std::min(n, size());
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  }
}

std::vector<std::uint8_t> ByteQueue::read(std::size_t max) {
  const std::size_t n = std::min(max, size());
  const auto begin = buffer_.begin() + static_cast<std::ptrdiff_t>(head_);
  std::vector<std::uint8_t> out(begin, begin + static_cast<std::ptrdiff_t>(n));
  head_ += n;
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  }
  return out;
}

std::string_view to_string(SessionState state) noexcept {
  switch (state) {
    case SessionState::kIdle: return "Idle";
    case SessionState::kConnect: return "Connect";
    case SessionState::kOpenSent: return "OpenSent";
    case SessionState::kOpenConfirm: return "OpenConfirm";
    case SessionState::kEstablished: return "Established";
  }
  return "?";
}

namespace {
metrics::Labels vp_labels(VpId vp) { return {{"vp", std::to_string(vp)}}; }
}  // namespace

SessionCounters::SessionCounters(metrics::Registry& registry, VpId vp)
    : messages_received(registry.counter(
          "gill_daemon_messages_received_total",
          "BGP messages decoded and handled", vp_labels(vp))),
      updates_received(registry.counter(
          "gill_daemon_updates_received_total",
          "Per-prefix announcements and withdrawals ingested",
          vp_labels(vp))),
      updates_filtered(registry.counter(
          "gill_daemon_updates_filtered_total",
          "Updates discarded by the filter table", vp_labels(vp))),
      updates_stored(registry.counter(
          "gill_daemon_updates_stored_total",
          "Updates kept by the filter table and handed to the archive sink "
          "(counted whether or not a sink is attached)",
          vp_labels(vp))),
      garbage_bytes(registry.counter(
          "gill_daemon_garbage_bytes_total",
          "Bytes walked over while resynchronizing the wire", vp_labels(vp))),
      notifications_sent(registry.counter(
          "gill_daemon_notifications_sent_total",
          "NOTIFICATION messages sent on teardown", vp_labels(vp))),
      resyncs(registry.counter(
          "gill_daemon_resyncs_total",
          "Session RIBs cleared for replay on reconnect", vp_labels(vp))),
      reconnects(registry.counter("gill_daemon_reconnects_total",
                                  "OPENs re-sent after a teardown",
                                  vp_labels(vp))),
      keepalives_sent(registry.counter("gill_daemon_keepalives_sent_total",
                                       "KEEPALIVEs generated by tick()",
                                       vp_labels(vp))),
      gr_negotiated(registry.counter(
          "gill_gr_negotiated_total",
          "Sessions established with RFC 4724 graceful restart agreed",
          vp_labels(vp))),
      eor_sent(registry.counter("gill_gr_eor_sent_total",
                                "End-of-RIB markers sent", vp_labels(vp))),
      eor_received(registry.counter("gill_gr_eor_received_total",
                                    "End-of-RIB markers received",
                                    vp_labels(vp))),
      stale_retained(registry.counter(
          "gill_gr_stale_retained_total",
          "Routes retained as stale at session teardown instead of purged",
          vp_labels(vp))),
      stale_refreshed(registry.counter(
          "gill_gr_stale_refreshed_total",
          "Re-advertisements identical to the retained stale route, "
          "suppressed downstream",
          vp_labels(vp))),
      stale_swept(registry.counter(
          "gill_gr_stale_swept_total",
          "Stale routes withdrawn at End-of-RIB (not re-advertised)",
          vp_labels(vp))),
      stale_expired(registry.counter(
          "gill_gr_stale_expired_total",
          "Stale routes flushed when the restart window closed",
          vp_labels(vp))),
      message_bytes(registry.histogram("gill_daemon_message_bytes",
                                       "Wire size of each decoded message",
                                       vp_labels(vp),
                                       /*finite_buckets=*/13)) {}  // <= 8 KiB

Timestamp RetryPolicy::delay(std::size_t attempt) const {
  double raw = static_cast<double>(base);
  for (std::size_t i = 0; i < attempt && raw < static_cast<double>(cap); ++i) {
    raw *= multiplier;
  }
  raw = std::min(raw, static_cast<double>(cap));
  // One independent draw per attempt index: the schedule is a pure function
  // of (policy, attempt), reproducible regardless of call order.
  std::mt19937_64 rng(jitter_seed ^ (0x9E3779B97F4A7C15ULL * (attempt + 1)));
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const double jittered = raw * (1.0 - jitter * u);
  return std::max<Timestamp>(1, static_cast<Timestamp>(std::llround(jittered)));
}

BgpDaemon::BgpDaemon(VpId vp, bgp::AsNumber local_as, Transport& transport,
                     const filt::FilterTable* filters, MrtStore* store,
                     metrics::Registry* registry)
    : vp_(vp),
      local_as_(local_as),
      transport_(&transport),
      filters_(filters),
      store_(store),
      own_registry_(registry ? nullptr
                             : std::make_unique<metrics::Registry>()),
      registry_(registry ? registry : own_registry_.get()),
      counters_(*registry_, vp),
      seen_epoch_(transport.epoch()) {}

DaemonStats BgpDaemon::stats() const noexcept {
  DaemonStats stats;
  stats.messages_received = counters_.messages_received.value();
  stats.updates_received = counters_.updates_received.value();
  stats.updates_filtered = counters_.updates_filtered.value();
  stats.updates_stored = counters_.updates_stored.value();
  stats.garbage_bytes = counters_.garbage_bytes.value();
  stats.notifications_sent = counters_.notifications_sent.value();
  stats.resyncs = counters_.resyncs.value();
  stats.reconnects = counters_.reconnects.value();
  stats.keepalives_sent = counters_.keepalives_sent.value();
  stats.gr_negotiated = counters_.gr_negotiated.value();
  stats.eor_sent = counters_.eor_sent.value();
  stats.eor_received = counters_.eor_received.value();
  stats.stale_retained = counters_.stale_retained.value();
  stats.stale_refreshed = counters_.stale_refreshed.value();
  stats.stale_swept = counters_.stale_swept.value();
  stats.stale_expired = counters_.stale_expired.value();
  for (const metrics::Counter* counter : decode_error_counters_) {
    if (counter != nullptr) stats.decode_errors += counter->value();
  }
  return stats;
}

void BgpDaemon::count_decode_error(wire::DecodeError error) {
  metrics::Counter*& slot =
      decode_error_counters_[static_cast<std::size_t>(error) %
                             kDecodeErrorKinds];
  if (slot == nullptr) {
    slot = &registry_->counter(
        "gill_daemon_decode_errors_total",
        "Malformed messages / garbage runs, by DecodeError kind",
        {{"vp", std::to_string(vp_)},
         {"kind", std::string(wire::to_string(error))}});
  }
  slot->inc();
}

void BgpDaemon::send(const wire::Message& message) {
  const auto bytes = wire::encode(message);
  transport_->write_to_peer(bytes);
}

wire::OpenMessage BgpDaemon::make_open() const {
  wire::OpenMessage open;
  open.as = local_as_;
  open.hold_time = hold_time_;
  open.bgp_id = 0x0A000001;
  open.gr_enabled = gr_.enabled;
  open.gr_restart_time = gr_.restart_time;
  return open;
}

void BgpDaemon::start(Timestamp now) {
  send(make_open());
  state_ = SessionState::kOpenSent;
  last_heard_ = now;
  last_keepalive_ = now;
}

void BgpDaemon::teardown(Timestamp now, bool notify, std::uint8_t code,
                         std::uint8_t subcode) {
  if (notify && transport_->connected()) {
    send(wire::NotificationMessage{code, subcode});
    counters_.notifications_sent.inc();
    last_notification_ = wire::NotificationMessage{code, subcode};
  }
  // RFC 4724 helper mode: a GR-negotiated session retains its table as
  // stale under the restart window instead of purging it; the resync sweep
  // (or the timer in tick()) reconciles it later.
  if (gr_negotiated_ && !rib_.empty()) {
    counters_.stale_retained.inc(rib_.size() - rib_.stale_count());
    rib_.mark_all_stale();
    gr_syncing_ = true;
    const Timestamp window =
        peer_gr_restart_time_ > 0 ? peer_gr_restart_time_ : gr_.max_stale_time;
    stale_deadline_ = now + std::min<Timestamp>(window, gr_.max_stale_time);
  }
  gr_negotiated_ = false;  // renegotiated by the next session's OPENs
  state_ = SessionState::kIdle;
  peer_as_ = 0;
  // Buffered bytes are dropped by poll() once it observes the teardown; they
  // cannot be cleared here because poll() may be iterating the buffer.
  reset_requested_ = true;
  in_garbage_run_ = false;
  // BGP closes the underlying connection after the NOTIFICATION; in-flight
  // bytes in both directions are lost.
  if (transport_->connected()) transport_->disconnect();
  seen_epoch_ = transport_->epoch();
  if (retry_) {
    reconnect_at_ = now + retry_->delay(attempt_);
    ++attempt_;
  }
}

void BgpDaemon::reconnect_now(Timestamp now) {
  if (!transport_->connected()) transport_->reconnect();
  seen_epoch_ = transport_->epoch();
  pending_.clear();
  reset_requested_ = false;
  in_garbage_run_ = false;
  if (gr_syncing_) {
    // Graceful restart: keep the retained table; the resync sweep (EoR or
    // timer expiry) reconciles it. No full replay, so no resync counted.
  } else {
    // The old session's table is stale; the peer's replay repopulates it.
    if (ever_established_) counters_.resyncs.inc();
    rib_ = bgp::Rib{};
  }
  send(make_open());
  state_ = SessionState::kOpenSent;
  last_heard_ = now;
  last_keepalive_ = now;
  reconnect_at_ = 0;
  counters_.reconnects.inc();
}

void BgpDaemon::process_update(Update update, bool synthetic) {
  if (!synthetic) counters_.updates_received.inc();
  if (mirror_) mirror_(update);
  // The session table is maintained for periodic snapshots and — under a
  // negotiated graceful restart — for stale-route retention across flaps.
  if (rib_dump_interval_ > 0 || gr_negotiated_) rib_.apply(update);
  if (filters_ && !filters_->accept(update)) {
    counters_.updates_filtered.inc();
    return;
  }
  if (store_) store_->store(update);
  if (archive_) archive_->store(update);
  counters_.updates_stored.inc();
}

void BgpDaemon::flush_stale(Timestamp now, metrics::Counter& counter) {
  const auto swept = rib_.sweep_stale();
  for (const auto& prefix : swept) {
    Update update;
    update.vp = vp_;
    update.time = now;
    update.prefix = prefix;
    update.withdrawal = true;
    process_update(std::move(update), /*synthetic=*/true);
  }
  counter.inc(swept.size());
  gr_syncing_ = false;
  stale_deadline_ = 0;
}

void BgpDaemon::ingest_update(const wire::UpdateMessage& message,
                              Timestamp now) {
  auto withdraw = [&](const net::Prefix& prefix) {
    Update update;
    update.vp = vp_;
    update.time = now;
    update.prefix = prefix;
    update.withdrawal = true;
    process_update(std::move(update), /*synthetic=*/false);
  };
  for (const auto& prefix : message.withdrawn) withdraw(prefix);
  for (const auto& prefix : message.withdrawn_v6) withdraw(prefix);
  auto announce = [&](const net::Prefix& prefix) {
    if (gr_syncing_) {
      // Resync: a re-advertisement identical to the retained stale entry
      // refreshes it in place — downstream consumers see no churn.
      const bgp::Route* retained = rib_.find(prefix);
      if (retained != nullptr && retained->stale &&
          retained->path == message.path &&
          retained->communities == message.communities) {
        rib_.refresh(prefix);
        counters_.updates_received.inc();  // it did arrive on the wire
        counters_.stale_refreshed.inc();
        return;
      }
    }
    Update update;
    update.vp = vp_;
    update.time = now;
    update.prefix = prefix;
    update.path = message.path;
    update.communities = message.communities;
    process_update(std::move(update), /*synthetic=*/false);
  };
  for (const auto& prefix : message.nlri) announce(prefix);
  for (const auto& prefix : message.nlri_v6) announce(prefix);
}

void BgpDaemon::handle(const wire::Message& message, Timestamp now) {
  counters_.messages_received.inc();
  last_heard_ = now;
  switch (wire::type_of(message)) {
    case wire::MessageType::kOpen: {
      if (state_ != SessionState::kOpenSent &&
          state_ != SessionState::kConnect) {
        teardown(now, true, 6, 0);  // FSM error
        return;
      }
      const auto& open = std::get<wire::OpenMessage>(message);
      peer_as_ = open.as;
      peer_gr_enabled_ = open.gr_enabled;
      peer_gr_restart_time_ = open.gr_restart_time;
      send(wire::KeepaliveMessage{});
      state_ = SessionState::kOpenConfirm;
      return;
    }
    case wire::MessageType::kKeepalive: {
      if (state_ == SessionState::kOpenConfirm) {
        state_ = SessionState::kEstablished;
        attempt_ = 0;  // a full session resets the backoff schedule
        ever_established_ = true;
        last_keepalive_ = now;
        gr_negotiated_ = gr_.enabled && peer_gr_enabled_;
        if (gr_syncing_ && !gr_negotiated_) {
          // The peer came back without GR: the retained table cannot be
          // reconciled, so flush it and fall back to a full resync.
          flush_stale(now, counters_.stale_expired);
          counters_.resyncs.inc();
        }
        if (gr_negotiated_) {
          counters_.gr_negotiated.inc();
          // Our Adj-RIB-Out is empty (a collector advertises nothing), so
          // our End-of-RIB follows immediately.
          send(wire::UpdateMessage{});
          counters_.eor_sent.inc();
        }
      }
      return;
    }
    case wire::MessageType::kUpdate: {
      if (state_ != SessionState::kEstablished) {
        teardown(now, true, 5, 0);  // FSM error: update before Established
        return;
      }
      const auto& update = std::get<wire::UpdateMessage>(message);
      if (wire::is_end_of_rib(update)) {
        counters_.eor_received.inc();
        // Resync complete: whatever the peer did not re-advertise is gone.
        if (gr_syncing_) flush_stale(now, counters_.stale_swept);
        return;
      }
      ingest_update(update, now);
      return;
    }
    case wire::MessageType::kNotification: {
      teardown(now, false, 0, 0);  // peer closed the session
      return;
    }
  }
}

void BgpDaemon::poll(Timestamp now) {
  if (transport_->epoch() != seen_epoch_) {
    // The connection died under us (transport-level reset).
    seen_epoch_ = transport_->epoch();
    pending_.clear();
    in_garbage_run_ = false;
    if (state_ != SessionState::kIdle) teardown(now, false, 0, 0);
  }
  if (!transport_->connected()) {
    if (state_ != SessionState::kIdle) teardown(now, false, 0, 0);
    return;
  }
  if (state_ == SessionState::kIdle) {
    // No session: whatever the pipe carries belongs to no conversation.
    transport_->to_daemon.read();
    pending_.clear();
    reset_requested_ = false;
    return;
  }

  const auto incoming = transport_->to_daemon.read();
  pending_.insert(pending_.end(), incoming.begin(), incoming.end());

  std::size_t offset = 0;
  while (offset < pending_.size()) {
    std::size_t consumed = 0;
    wire::DecodeError error = wire::DecodeError::kNone;
    const auto message = wire::decode(
        std::span(pending_.data() + offset, pending_.size() - offset),
        consumed, error);
    if (message) {
      in_garbage_run_ = false;
      counters_.message_bytes.observe(consumed);
      handle(*message, now);
      offset += consumed;
      if (reset_requested_) break;  // drop the rest of the buffer
    } else if (consumed > 0) {
      if (error == wire::DecodeError::kBadMarker ||
          error == wire::DecodeError::kBadLength) {
        counters_.garbage_bytes.inc(consumed);
        // A contiguous garbage run counts as one decode error, however many
        // bytes the resynchronization walks over.
        if (!in_garbage_run_) {
          count_decode_error(error);
          in_garbage_run_ = true;
        }
      } else {
        count_decode_error(error);  // structurally invalid, skipped whole
        in_garbage_run_ = false;
      }
      offset += consumed;
    } else {
      break;  // incomplete message: wait for more bytes
    }
  }
  if (reset_requested_) {
    pending_.clear();
    reset_requested_ = false;
  } else {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(offset));
  }
}

void BgpDaemon::tick(Timestamp now) {
  if (transport_->epoch() != seen_epoch_) {
    seen_epoch_ = transport_->epoch();
    pending_.clear();
    in_garbage_run_ = false;
    if (state_ != SessionState::kIdle) teardown(now, false, 0, 0);
  } else if (!transport_->connected() && state_ != SessionState::kIdle) {
    teardown(now, false, 0, 0);
  }
  if (state_ != SessionState::kIdle && now - last_heard_ > hold_time_) {
    teardown(now, true, 4, 0);  // hold timer expired
  }
  if (state_ == SessionState::kEstablished) {
    // Keepalive generation (RFC 4271 suggests a third of the hold time).
    const Timestamp interval = std::max<Timestamp>(1, hold_time_ / 3);
    if (now - last_keepalive_ >= interval) {
      send(wire::KeepaliveMessage{});
      counters_.keepalives_sent.inc();
      last_keepalive_ = now;
    }
  }
  if (state_ == SessionState::kIdle && retry_.has_value() &&
      reconnect_at_ != 0 && now >= reconnect_at_) {
    reconnect_now(now);
  }
  // RFC 4724: the peer stayed away past the restart window — its retained
  // routes can no longer be trusted; withdraw them.
  if (gr_syncing_ && stale_deadline_ != 0 && now >= stale_deadline_) {
    flush_stale(now, counters_.stale_expired);
  }
  // Periodic RIB snapshot (§8): the current table, stamped `now`, written
  // as TABLE_DUMP-style records alongside the update records.
  if (!defer_rib_dumps_ && rib_dump_interval_ > 0 &&
      (store_ != nullptr || archive_ != nullptr) &&
      now - last_rib_dump_ >= rib_dump_interval_ && !rib_.empty()) {
    const auto snapshot = rib_.dump(vp_, now);
    for (const auto& entry : snapshot) {
      if (store_ != nullptr) store_->store_rib_entry(entry);
      if (archive_ != nullptr) archive_->store_rib_entry(entry);
    }
    last_rib_dump_ = now;
    ++rib_dumps_;
  }
}

void FakePeer::send(const wire::Message& message) {
  transport_->write_to_daemon(wire::encode(message));
}

void FakePeer::poll() {
  if (transport_->epoch() != seen_epoch_) {
    // The connection was reset: the half-parsed buffer belongs to a dead
    // conversation, and the session has to be re-established.
    seen_epoch_ = transport_->epoch();
    pending_.clear();
    established_ = false;
  }
  if (!transport_->connected()) return;
  const auto incoming = transport_->to_peer.read();
  pending_.insert(pending_.end(), incoming.begin(), incoming.end());
  std::size_t offset = 0;
  while (offset < pending_.size()) {
    std::size_t consumed = 0;
    const auto message = wire::decode(
        std::span(pending_.data() + offset, pending_.size() - offset),
        consumed);
    if (!message) {
      if (consumed == 0) break;
      offset += consumed;
      continue;
    }
    offset += consumed;
    switch (wire::type_of(*message)) {
      case wire::MessageType::kOpen: {
        wire::OpenMessage open;
        open.as = as_;
        open.bgp_id = 0x0A000002;
        open.gr_enabled = gr_enabled_;
        open.gr_restarting = gr_restarting_;
        open.gr_restart_time = gr_restart_time_;
        send(open);
        send(wire::KeepaliveMessage{});
        break;
      }
      case wire::MessageType::kKeepalive:
        established_ = true;
        break;
      case wire::MessageType::kNotification:
        established_ = false;
        break;
      default:
        break;
    }
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(offset));
}

void FakePeer::send_keepalive() { send(wire::KeepaliveMessage{}); }

void FakePeer::send_end_of_rib() { send(wire::UpdateMessage{}); }

void FakePeer::send_update(const Update& update) {
  wire::UpdateMessage message;
  if (update.withdrawal) {
    if (update.prefix.family() == net::Family::v4) {
      message.withdrawn.push_back(update.prefix);
    } else {
      message.withdrawn_v6.push_back(update.prefix);
    }
  } else {
    if (update.prefix.family() == net::Family::v4) {
      message.nlri.push_back(update.prefix);
    } else {
      message.nlri_v6.push_back(update.prefix);
    }
    message.path = update.path;
    message.communities = update.communities;
    message.next_hop = 0x0A000002;
  }
  send(message);
}

void FakePeer::send_synthetic_burst(std::size_t count,
                                    std::uint32_t prefix_base) {
  for (std::size_t i = 0; i < count; ++i) {
    Update update;
    update.prefix = net::Prefix(
        net::IpAddress::v4(prefix_base + (static_cast<std::uint32_t>(i) << 8)),
        24);
    update.path = bgp::AsPath{as_, as_ + 1, as_ + 2};
    send_update(update);
  }
}

double CapacityModel::loss_fraction(std::size_t peers,
                                    double updates_per_hour, bool filters_on,
                                    double match_fraction) const {
  const double updates_per_second =
      static_cast<double>(peers) * updates_per_hour / 3600.0;
  const double matched = filters_on ? match_fraction : 0.0;
  const double per_update_cost =
      decode_cost_us + (filters_on ? filter_cost_us : 0.0) +
      (1.0 - matched) * store_cost_us;
  const double demand = updates_per_second * per_update_cost;
  if (demand <= cpu_budget_us_per_s) return 0.0;
  return 1.0 - cpu_budget_us_per_s / demand;
}

}  // namespace gill::daemon
