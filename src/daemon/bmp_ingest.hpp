// BMP ingestion adaptor (§14): lets a router feed GILL through the BGP
// Monitoring Protocol instead of a native peering session. Route
// Monitoring messages are unwrapped into per-prefix updates and pushed
// through the same mirror -> filter -> archive sink pipeline as the BGP
// daemon's, with the same counting: every update the filters keep is
// counted as stored, whether or not a sink is attached.
#pragma once

#include <functional>

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
  /// `vp` identifies the monitored router; `filters`/`archive` may be
  /// null. `archive` receives every kept update — an MrtStore, or the
  /// collector's archive sink (the LockedSink over its segment writer).
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

 private:
  void ingest(const wire::BmpRouteMonitoring& monitoring, Timestamp now);

  VpId vp_;
  const filt::FilterTable* filters_;
  mrt::Sink* archive_;
  std::unique_ptr<metrics::Registry> own_registry_;
  metrics::Registry* registry_;
  BmpCounters counters_;
  std::vector<std::uint8_t> pending_;
  std::function<void(const Update&)> mirror_;
};

}  // namespace gill::daemon
