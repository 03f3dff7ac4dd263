// BMP ingestion adaptor (§14): lets a router feed GILL through the BGP
// Monitoring Protocol instead of a native peering session. Route
// Monitoring messages are unwrapped into per-prefix updates and pushed
// through the same mirror -> filter -> archive sink pipeline as the BGP
// daemon's, with the same counting: every update the filters keep is
// counted as stored, whether or not a sink is attached.
#pragma once

#include <functional>
#include <map>
#include <tuple>

#include "daemon/daemon.hpp"
#include "wire/bmp.hpp"

namespace gill::daemon {

/// Value snapshot of one BMP stream's counters, read from the metric
/// registry by BmpIngest::stats() — same view contract as DaemonStats.
struct BmpIngestStats {
  std::size_t messages = 0;
  std::size_t route_monitoring = 0;
  std::size_t peer_events = 0;       // peer up/down
  std::size_t updates_received = 0;  // per-prefix announcements/withdrawals
  std::size_t updates_filtered = 0;
  std::size_t updates_stored = 0;    // kept by the filters, sink or not
  std::size_t garbage_bytes = 0;
};

/// Registry-backed instruments for one BMP stream (gill_bmp_*{vp=...}),
/// resolved once at construction.
struct BmpCounters {
  BmpCounters(metrics::Registry& registry, VpId vp);

  metrics::Counter& messages;
  metrics::Counter& route_monitoring;
  metrics::Counter& peer_events;
  metrics::Counter& updates_received;
  metrics::Counter& updates_filtered;
  metrics::Counter& updates_stored;
  metrics::Counter& garbage_bytes;
};

/// Stateful decoder for one BMP byte stream.
class BmpIngest {
 public:
  /// `vp` labels the stream's counters and its updates (see
  /// set_peer_labels); `filters`/`archive` may be null. `archive`
  /// receives every kept update — an MrtStore, or the collector's segment
  /// writer.
  /// `registry` hosts the stream's counters; when null the ingest owns a
  /// private registry (isolated stand-alone use).
  BmpIngest(VpId vp, const filt::FilterTable* filters, mrt::Sink* archive,
            metrics::Registry* registry = nullptr)
      : vp_(vp),
        filters_(filters),
        archive_(archive),
        own_registry_(registry ? nullptr
                               : std::make_unique<metrics::Registry>()),
        registry_(registry ? registry : own_registry_.get()),
        counters_(*registry_, vp) {}

  /// Feeds raw bytes; `now` stamps stored updates. BMP's per-peer
  /// timestamp is preferred when present and not after `now`; a future
  /// stamp is replaced by `now`.
  void feed(std::span<const std::uint8_t> data, Timestamp now);

  /// A consistent value snapshot read from the registry counters.
  BmpIngestStats stats() const noexcept;
  metrics::Registry& metrics() const noexcept { return *registry_; }

  /// Pre-filter tap (same contract as BgpDaemon::set_mirror).
  void set_mirror(std::function<void(const Update&)> mirror) {
    mirror_ = std::move(mirror);
  }

  /// Re-points the kept updates at `archive` (may be null), from the next
  /// message on.
  void set_archive(mrt::Sink* archive) { archive_ = archive; }

  /// Labels every monitored peer (RFC 7854 per-peer header, timestamps
  /// aside) as a vantage point of its own: the first keeps `vp`, each later
  /// one takes `next_label()` when it first appears. A router's peers then
  /// never look like one VP's churn to the sampling, and a (vp, prefix)
  /// drop rule reaches one peer's updates only. Without it every monitored
  /// peer is labelled `vp`. The stream's counters stay labelled `vp`.
  void set_peer_labels(std::function<VpId()> next_label) {
    next_label_ = std::move(next_label);
  }

 private:
  using PeerKey = std::tuple<std::uint8_t, std::uint8_t, std::uint64_t,
                             net::IpAddress, bgp::AsNumber, std::uint32_t>;

  void ingest(const wire::BmpRouteMonitoring& monitoring, Timestamp now);
  /// The VP label of the monitored peer `peer` describes.
  VpId label(const wire::BmpPeerHeader& peer);

  VpId vp_;
  const filt::FilterTable* filters_;
  mrt::Sink* archive_;
  std::unique_ptr<metrics::Registry> own_registry_;
  metrics::Registry* registry_;
  BmpCounters counters_;
  std::vector<std::uint8_t> pending_;
  std::function<void(const Update&)> mirror_;
  std::function<VpId()> next_label_;
  std::map<PeerKey, VpId> peer_labels_;
};

}  // namespace gill::daemon
