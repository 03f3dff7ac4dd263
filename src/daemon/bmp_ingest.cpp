#include "daemon/bmp_ingest.hpp"

namespace gill::daemon {

namespace {
metrics::Labels bmp_labels(VpId vp) { return {{"vp", std::to_string(vp)}}; }
}  // namespace

BmpCounters::BmpCounters(metrics::Registry& registry, VpId vp)
    : messages(registry.counter("gill_bmp_messages_total",
                                "BMP messages decoded", bmp_labels(vp))),
      route_monitoring(registry.counter("gill_bmp_route_monitoring_total",
                                        "BMP Route Monitoring messages",
                                        bmp_labels(vp))),
      peer_events(registry.counter("gill_bmp_peer_events_total",
                                   "BMP Peer Up/Down events",
                                   bmp_labels(vp))),
      updates_received(registry.counter(
          "gill_bmp_updates_received_total",
          "Per-prefix announcements/withdrawals unwrapped", bmp_labels(vp))),
      updates_filtered(registry.counter(
          "gill_bmp_updates_filtered_total",
          "Updates discarded by the filter table", bmp_labels(vp))),
      updates_stored(registry.counter(
          "gill_bmp_updates_stored_total",
          "Updates kept by the filter table and handed to the archive sink "
          "(counted whether or not a sink is attached)",
          bmp_labels(vp))),
      garbage_bytes(registry.counter("gill_bmp_garbage_bytes_total",
                                     "Undecodable bytes skipped",
                                     bmp_labels(vp))) {}

BmpIngestStats BmpIngest::stats() const noexcept {
  BmpIngestStats stats;
  stats.messages = counters_.messages.value();
  stats.route_monitoring = counters_.route_monitoring.value();
  stats.peer_events = counters_.peer_events.value();
  stats.updates_received = counters_.updates_received.value();
  stats.updates_filtered = counters_.updates_filtered.value();
  stats.updates_stored = counters_.updates_stored.value();
  stats.garbage_bytes = counters_.garbage_bytes.value();
  return stats;
}

VpId BmpIngest::label(const wire::BmpPeerHeader& peer) {
  if (!next_label_) return vp_;
  const PeerKey key{peer.peer_type, peer.flags, peer.distinguisher,
                    peer.address,   peer.as,    peer.bgp_id};
  if (const auto it = peer_labels_.find(key); it != peer_labels_.end()) {
    return it->second;
  }
  const VpId vp = peer_labels_.empty() ? vp_ : next_label_();
  peer_labels_.emplace(key, vp);
  return vp;
}

void BmpIngest::ingest(const wire::BmpRouteMonitoring& monitoring,
                       Timestamp now) {
  // The router's per-peer timestamp is kept unless it lies ahead of
  // `now`: archive windows follow record times, so one future stamp (a
  // clock set ahead, or 0xFFFFFFFF from anything that reaches the BMP
  // port) would otherwise open a window the timer never seals.
  const auto stamped = static_cast<Timestamp>(monitoring.peer.timestamp_sec);
  const Timestamp when = stamped != 0 && stamped <= now ? stamped : now;
  const VpId vp = label(monitoring.peer);
  auto process = [&](Update update) {
    counters_.updates_received.inc();
    if (mirror_) mirror_(update);
    if (filters_ && !filters_->accept(update)) {
      counters_.updates_filtered.inc();
      return;
    }
    if (archive_) archive_->store(update);
    counters_.updates_stored.inc();
  };

  const auto& message = monitoring.update;
  auto withdrawal = [&](const net::Prefix& prefix) {
    Update update;
    update.vp = vp;
    update.time = when;
    update.prefix = prefix;
    update.withdrawal = true;
    process(std::move(update));
  };
  auto announcement = [&](const net::Prefix& prefix) {
    Update update;
    update.vp = vp;
    update.time = when;
    update.prefix = prefix;
    update.path = message.path;
    update.communities = message.communities;
    process(std::move(update));
  };
  for (const auto& prefix : message.withdrawn) withdrawal(prefix);
  for (const auto& prefix : message.withdrawn_v6) withdrawal(prefix);
  for (const auto& prefix : message.nlri) announcement(prefix);
  for (const auto& prefix : message.nlri_v6) announcement(prefix);
}

void BmpIngest::feed(std::span<const std::uint8_t> data, Timestamp now) {
  pending_.insert(pending_.end(), data.begin(), data.end());
  std::size_t offset = 0;
  while (offset < pending_.size()) {
    std::size_t consumed = 0;
    const auto message = wire::decode_bmp(
        std::span(pending_.data() + offset, pending_.size() - offset),
        consumed);
    if (!message) {
      if (consumed == 0) break;  // incomplete
      counters_.garbage_bytes.inc(consumed);
      offset += consumed;
      continue;
    }
    offset += consumed;
    counters_.messages.inc();
    if (const auto* monitoring =
            std::get_if<wire::BmpRouteMonitoring>(&*message)) {
      counters_.route_monitoring.inc();
      ingest(*monitoring, now);
    } else if (std::holds_alternative<wire::BmpPeerUp>(*message) ||
               std::holds_alternative<wire::BmpPeerDown>(*message)) {
      counters_.peer_events.inc();
    }
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(offset));
}

}  // namespace gill::daemon
