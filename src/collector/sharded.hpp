// The sharded ingest plane (DESIGN.md §14): N ingest shards — one
// net::EventLoop, one Platform, one SO_REUSEPORT listener each — plus the
// merge plane that stitches their per-shard mirrors back into ONE
// deterministic stream for the sampling pipeline. The merge plane is the
// collector's only filter-refresh schedule: the periodic trigger, its
// deferral while degraded, the (at most one) job in flight and the
// fleet-wide install all live here.
//
// Ownership model. A session lives and dies on exactly one shard: its
// TcpTransport, BGP daemon FSM, token buckets, RIB and update mirror are
// all owned by that shard's loop thread and never touched by another. The
// only cross-thread primitives are EventLoop::post() (and its synchronous
// spelling ShardSet::call(), the control plane's harvest) and a handful of
// shared atomics:
//   * the VP-id allocator — one atomic counter, so ids are unique across
//     shards and independent of WHICH shard a session lands on,
//   * the global peer-count cap,
//   * the memory-watermark reading — the control thread samples the
//     process RSS once per tick and every shard's watermark check reads
//     that one number (an overloaded process is overloaded everywhere;
//     per-shard readings would shed on one shard while another admits),
//   * the SharedAcceptGovernor — a reconnect storm spread across N
//     listeners is still one storm.
// Ingest token buckets and queue watermarks stay shard-local: they police
// one session each, on the session's own thread, lock-free.
//
// Merge determinism. The merged mirror handed to the analysis pipeline is
// byte-identical regardless of shard count: each VP lives on exactly one
// shard, per-shard mirrors preserve arrival order, and the merge is a
// stable sort by (time, vp) — so per-VP order survives and cross-VP ties
// break by id, never by shard topology. The same pipeline output (filters
// + anchors) is then installed into every shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "collector/platform.hpp"
#include "net/shard.hpp"
#include "net/tcp_transport.hpp"

namespace gill::collect {

/// Serializes an mrt::Sink that N shard threads write concurrently (the
/// daemons' archive tee). Records from different sessions interleave at
/// record granularity; per-session order is preserved (each session writes
/// from one thread). with_lock() lets the control thread run the inner
/// sink's own maintenance (SegmentWriter::tick/close) under the same lock.
class LockedSink : public mrt::Sink {
 public:
  explicit LockedSink(mrt::Sink* inner) : inner_(inner) {}

  void store(const bgp::Update& update) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->store(update);
  }
  void store_rib_entry(const bgp::Update& entry) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->store_rib_entry(entry);
  }
  template <typename F>
  void with_lock(F&& fn) {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn();
  }

 private:
  std::mutex mutex_;
  mrt::Sink* inner_;
};

struct ShardedPlatformConfig {
  /// Ingest shards (loops/threads). Clamped to at least 1.
  std::size_t shards = 1;
  /// Template for every shard's Platform. vp_allocator, metric_labels and
  /// overload.memory_probe are overridden per shard; everything else
  /// (local_as, gr, retry, health, gill, registry) applies as given.
  PlatformConfig platform;
  /// Per-session ingest policing, applied to every accepted/dialed socket.
  net::IngestLimits ingest_limits;
  /// Global session cap across all shards.
  std::size_t max_peers = 4096;
  /// Per-source accepts/second before connections are refused (global
  /// across shards; 0 disables).
  double accept_rate = 0;
  /// Per-session RIB snapshot period, seconds (0 disables).
  Timestamp rib_dump_interval = 0;
  /// Component #1 refresh period (16 days in the paper, §7). The first
  /// period starts at the first control_tick(); 0 disables the trigger.
  Timestamp component1_refresh = 16 * 86400;
  /// Executor for refresh jobs (the ONE pipeline run over the merged
  /// mirrors), owned by the caller. nullptr runs the refresh inline on the
  /// control thread, and so does GILL_ANALYSIS_SERIAL.
  par::ThreadPool* analysis_pool = nullptr;
  /// Logical clock (seconds) stamped on sessions and updates. Must be
  /// callable from any shard thread. Defaults to the wall clock; tests
  /// inject a fixed clock to make merged snapshots byte-comparable.
  std::function<Timestamp()> clock;
  /// Observer for every admitted session (logging). Runs on the OWNING
  /// shard's thread — keep it cheap and thread-safe.
  std::function<void(std::size_t shard, VpId vp, const std::string& peer_ip)>
      on_session;
};

class ShardedPlatform {
 public:
  explicit ShardedPlatform(ShardedPlatformConfig config);
  /// Stops the fleet and waits for an in-flight refresh job.
  ~ShardedPlatform();
  ShardedPlatform(const ShardedPlatform&) = delete;
  ShardedPlatform& operator=(const ShardedPlatform&) = delete;

  // --- setup (call BEFORE start()) -----------------------------------------
  /// Binds the BGP listen port on every shard (one SO_REUSEPORT listener
  /// each). False when the listener group cannot bind.
  bool listen(const std::string& host, std::uint16_t port);
  /// Dials an outbound peering; sessions are spread round-robin.
  bool dial(const std::string& host, std::uint16_t port, bgp::AsNumber asn);
  /// Routes every session's stored records into `sink`, the fleet's one
  /// archive (see Platform::set_archive); the caller owns it. `sink` is
  /// written from N shard threads — wrap it in a LockedSink (or pass
  /// something inherently thread-safe).
  void set_archive(mrt::Sink* sink);
  /// Live-stream tap: updates are collected into per-shard outboxes on
  /// the hot path and fanned out to `publisher` on the CONTROL thread by
  /// control_tick()/drain_stream() — StreamHub and friends stay
  /// single-threaded. Per-VP order is preserved; cross-VP interleaving
  /// follows harvest order.
  void set_stream_publisher(std::function<void(const bgp::Update&)> publisher);

  /// Starts the shard threads; each loop ticks its own sessions every
  /// `tick_ms` (daemon polls, hold timers, transport sync).
  void start(std::uint64_t tick_ms = 200);
  /// Stops and joins the fleet. Idempotent; also runs from the destructor.
  void stop();
  bool running() const noexcept { return shards_.running(); }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::uint16_t port() const noexcept { return listener_.port(); }

  // --- control plane (call from ONE control thread only) -------------------
  /// The per-tick control work: samples the memory probe into the shared
  /// watermark reading, drains the stream outboxes, installs a completed
  /// refresh job, and triggers the periodic refresh when due. A due
  /// refresh is deferred while any shard is degraded and runs at the first
  /// tick after memory recovers (DESIGN.md §11).
  void control_tick(Timestamp now);
  /// Fans queued stream updates out to the publisher (subset of
  /// control_tick for callers with their own cadence).
  void drain_stream();

  std::size_t peer_count() const;
  std::size_t peer_count(std::size_t shard) const;
  /// Merged across shards, peers ordered by VP id.
  HealthSnapshot health_snapshot() const;
  /// True when any shard's memory watermark holds it degraded.
  bool degraded() const;
  /// Updates this fleet's sessions kept (Platform::stored_updates summed
  /// over the shards). Other platforms sharing the registry do not count.
  std::size_t stored_updates() const;

  /// Harvests every shard's mirror (each restarts empty) and stable-merges
  /// them by (time, vp): byte-identical for any shard count.
  bgp::UpdateStream take_merged_mirror();
  /// Every session's RIB dumped at `time`, merged and fully sorted —
  /// shard-count-invariant by the same argument as the mirror.
  bgp::UpdateStream merged_rib_dump(Timestamp time) const;

  /// The merge-plane refresh: harvest + stable merge + ONE
  /// compute_refresh() + install the identical (filters, anchors) into
  /// every shard. Runs on the analysis pool when configured (installed by
  /// a later control_tick/poll_refresh), inline otherwise. No-op on an
  /// empty merged mirror, and while a job is in flight: the mirrors keep
  /// accumulating the next window.
  void refresh_filters(Timestamp now);
  bool refresh_in_flight() const noexcept { return job_.valid(); }
  /// Installs a completed refresh job (non-blocking).
  void poll_refresh();
  /// Blocks until any in-flight refresh job is installed.
  void wait_for_refresh();
  std::uint64_t filter_generation() const noexcept { return generation_; }

  /// The merged filter/anchor state (control-thread view; the address is
  /// stable, so BMP ingest can hold a pointer).
  const filt::FilterTable& filters() const noexcept { return filters_; }
  const std::vector<VpId>& anchors() const noexcept { return anchors_; }
  std::string published_filter_document() const {
    return filter_document(filters_);
  }
  std::string published_anchor_document() const {
    return anchor_document(anchors_);
  }

  /// Runs `fn(platform)` on shard `shard`'s thread and returns its result
  /// — the test/tooling escape hatch for per-shard inspection.
  template <typename F>
  auto with_shard(std::size_t shard, F&& fn) {
    return shards_.call(shard, [this, shard, &fn] {
      return fn(*states_[shard]->platform);
    });
  }

 private:
  struct ShardState {
    std::unique_ptr<Platform> platform;
    /// TcpTransport view of the platform-owned transports (per-tick sync).
    std::map<VpId, net::TcpTransport*> transports;
    /// Stream outbox: filled on the shard thread, drained by the control
    /// thread (the one lock on the mirror path; uncontended between ticks).
    std::mutex outbox_mutex;
    std::vector<bgp::Update> outbox;
  };

  /// Runs on the owning shard's thread (ShardedListener contract).
  void accept_session(std::size_t shard, int fd, const std::string& peer_ip);
  /// One shard's tick body (shard thread): step the platform, sync sockets.
  void step_shard(std::size_t shard);
  Timestamp now() const { return clock_(); }
  void install(FilterRefresh refresh);

  ShardedPlatformConfig config_;
  std::function<Timestamp()> clock_;
  std::function<std::size_t()> rss_probe_;
  metrics::Registry* registry_;
  /// mutable: ShardSet::call() posts into loops, but a harvest is
  /// logically const (peer_count() & co. only read shard state).
  mutable net::ShardSet shards_;
  net::ShardedListener listener_;
  std::unique_ptr<net::SharedAcceptGovernor> governor_;
  std::vector<std::unique_ptr<ShardState>> states_;
  std::function<void(const bgp::Update&)> publisher_;
  mrt::Sink* archive_ = nullptr;

  std::atomic<VpId> next_vp_{0};
  std::atomic<std::size_t> total_peers_{0};
  std::atomic<std::size_t> rss_bytes_{0};

  // Merge plane (control-thread state).
  std::future<FilterRefresh> job_;  // at most one refresh in flight
  filt::FilterTable filters_;
  std::vector<VpId> anchors_;
  anchor::ScoreCache score_cache_;
  std::uint64_t generation_ = 0;
  /// Start of the current refresh period; unset until the first tick.
  std::optional<Timestamp> last_refresh_;
  bool refresh_deferred_ = false;  // the due refresh was counted deferred
  std::size_t next_dial_shard_ = 0;
  metrics::Counter& refreshes_;
  metrics::Counter& refreshes_deferred_;
  metrics::Counter& purged_updates_;
  metrics::Counter& cache_hits_;
  metrics::Counter& cache_misses_;
  metrics::Histogram& refresh_duration_us_;
  metrics::Counter& merged_updates_;
  metrics::Counter& stream_drained_;
  metrics::Gauge& shard_gauge_;
};

}  // namespace gill::collect
