// The live collector's ingest plane (DESIGN.md §14): one ingest event loop
// on its own thread — its listeners, admission and the one Platform — plus
// the stream outbox and the merge plane, the collector's only
// filter-refresh schedule: the periodic trigger, its deferral while
// degraded, the (at most one) job in flight and the install all live here.
//
// Ownership model. The Platform owns every feed, BGP session and BMP feed
// alike: transports, BGP FSMs and BMP decoders, RIBs, the mirror, the
// filter table and the archive's write side (records, RIB snapshots, the
// rotation tick). It lives on the ingest thread, with the listeners, the
// token buckets and admission control (the live-connection cap and the
// accept governor), where every accept runs. The control thread (HTTP,
// stream fan-out, the merge plane) reaches it through two doors:
// EventLoop::post() and its synchronous spelling call() for harvests and
// installs, and the stream outbox, a mutex-guarded vector the ingest
// thread appends to and the control thread swaps out.
//
// Before start() the loop has no thread, and every call runs inline on
// the caller's thread: setup, tests that drive in-process sessions
// deterministically, and teardown after stop() need no posting.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "collector/platform.hpp"
#include "net/event_loop.hpp"
#include "net/overload.hpp"
#include "net/tcp_transport.hpp"

namespace gill::collect {

/// Serializes an mrt::Sink that several threads write. The collector needs
/// none (only its ingest thread writes the archive); perfbench's layer
/// replay still models the archive tee with it.
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

 private:
  std::mutex mutex_;
  mrt::Sink* inner_;
};

struct ShardedPlatformConfig {
  /// The ingest platform's configuration (local_as, gr, retry, health,
  /// overload, gill), applied as given; a null registry means
  /// metrics::default_registry().
  PlatformConfig platform;
  /// Per-connection ingest policing, applied to every accepted/dialed
  /// socket, BGP session and BMP feed alike.
  net::IngestLimits ingest_limits;
  /// Live-connection cap: an accept is refused while this many BGP sockets
  /// and BMP feeds are open.
  std::size_t max_peers = 4096;
  /// Per-source accepts/second before connections are refused (0
  /// disables).
  double accept_rate = 0;
  /// Per-session RIB snapshot period, seconds (0 disables).
  Timestamp rib_dump_interval = 0;
  /// Component #1 refresh period (16 days in the paper, §7). The first
  /// period starts at the first control_tick(); 0 disables the trigger.
  Timestamp component1_refresh = 16 * 86400;
  /// Executor for refresh jobs (the pipeline run over the harvested
  /// mirror), owned by the caller. nullptr runs the refresh inline on the
  /// control thread.
  par::ThreadPool* analysis_pool = nullptr;
  /// Logical clock (seconds) stamped on sessions and updates. Must be
  /// callable from the ingest thread. Defaults to the wall clock; tests
  /// inject a fixed clock to make snapshots byte-comparable.
  std::function<Timestamp()> clock;
  /// Observer for every admitted session and BMP feed (logging). Runs on
  /// the ingest thread — keep it cheap.
  std::function<void(VpId vp, const std::string& peer_ip)> on_session;
};

class ShardedPlatform {
 public:
  explicit ShardedPlatform(ShardedPlatformConfig config);
  /// Stops the ingest loop and waits for an in-flight refresh job.
  ~ShardedPlatform();
  ShardedPlatform(const ShardedPlatform&) = delete;
  ShardedPlatform& operator=(const ShardedPlatform&) = delete;

  // --- setup ---------------------------------------------------------------
  /// Binds the BGP listen port on the ingest loop. False when it cannot
  /// bind.
  bool listen(const std::string& host, std::uint16_t port);
  /// Binds the BMP listen port (RFC 7854) on the ingest loop. A feed is
  /// admitted, policed, mirrored, filtered, archived and streamed like a
  /// session (Platform::add_bmp_feed). False when it cannot bind.
  bool listen_bmp(const std::string& host, std::uint16_t port);
  /// Dials an outbound peering from the ingest loop.
  bool dial(const std::string& host, std::uint16_t port, bgp::AsNumber asn);
  /// Routes every session's and BMP feed's stored records into `sink`,
  /// the collector's one archive (see Platform::set_archive); the caller
  /// owns it. Only the ingest thread writes it and drives its tick(), so
  /// it needs no lock; meanwhile the caller may use only what the sink
  /// guards itself (SegmentWriter::manifest_generation, run_retention).
  void set_archive(mrt::Sink* sink);
  /// Takes one batch of updates, in arrival order (StreamHub::publish).
  using StreamPublisher = std::function<void(std::span<const bgp::Update>)>;
  /// Live-stream tap: the ingest loop decodes a session's or feed's bytes
  /// as they arrive and appends each accepted update to the outbox;
  /// drain_stream() hands the outbox to `publisher` whole, on the CONTROL
  /// thread, so StreamHub and friends stay single-threaded and a
  /// subscriber is flushed once per batch. nullptr detaches.
  void set_stream_publisher(StreamPublisher publisher);

  /// Starts the ingest thread. Each connection's bytes are decoded in the
  /// readable event that read them; the loop ticks every `tick_ms` for the
  /// timers only (session timers, transport sync, archive rotation).
  void start(std::uint64_t tick_ms = 200);
  /// Stops and joins the ingest thread. Idempotent; also runs from the
  /// destructor.
  void stop();
  bool running() const noexcept { return thread_.joinable(); }

  std::uint16_t port() const noexcept { return listener_.port(); }
  std::uint16_t bmp_port() const noexcept { return bmp_listener_.port(); }

  // --- control plane (call from ONE control thread only) -------------------
  /// The per-tick control work: installs a completed refresh job and
  /// triggers the periodic refresh when due. A due refresh is deferred
  /// while the platform is degraded and runs at the first tick after
  /// memory recovers (DESIGN.md §11). It does not touch the stream: see
  /// drain_stream().
  void control_tick(Timestamp now);
  /// Hands the stream outbox, swapped out whole, to the publisher as one
  /// batch. The stream's only hand-off: gill-collectord calls it after
  /// every pass of its control loop (at most one 10 ms wheel step apart),
  /// so delivery waits for no tick and adds no wakeups.
  void drain_stream();

  std::size_t peer_count() const;
  /// Peers ordered by VP id.
  HealthSnapshot health_snapshot() const;
  /// True while the memory watermark holds the platform degraded.
  bool degraded() const;
  /// Updates this collector's sessions and BMP feeds kept
  /// (Platform::stored_updates). Other platforms sharing the registry do
  /// not count.
  std::size_t stored_updates() const;

  /// The merge-plane refresh: ONE Platform::harvest() (the mirror and the
  /// quarantine roster, in one round trip to the ingest thread) + ONE
  /// compute_refresh() + install the (filters, anchors) into the ingest
  /// platform. Runs on the analysis pool when configured (installed by a
  /// later control_tick/poll_refresh), inline otherwise. No-op on an empty
  /// mirror, and while a job is in flight: the mirror keeps accumulating
  /// the next window.
  void refresh_filters(Timestamp now);
  bool refresh_in_flight() const noexcept { return job_.valid(); }
  /// Installs a completed refresh job (non-blocking).
  void poll_refresh();
  /// Blocks until any in-flight refresh job is installed.
  void wait_for_refresh();
  /// The ingest platform's filter generation (Platform::filter_generation).
  std::uint64_t filter_generation() const;

  /// Runs `fn(platform)` on the ingest thread and returns its result —
  /// the test/tooling escape hatch for inspecting the ingest platform and
  /// its installed filters.
  template <typename F>
  auto with_platform(F&& fn) {
    return call([this, &fn] { return fn(platform_); });
  }

 private:
  /// Runs `fn` on the ingest thread and returns its result: posted and
  /// waited for while the thread runs, inline before start() and after
  /// stop(). Only the control thread calls it; the ingest thread never
  /// waits on anybody.
  template <typename F>
  auto call(F&& fn) const -> std::invoke_result_t<F> {
    using Result = std::invoke_result_t<F>;
    if (!running()) return fn();
    std::packaged_task<Result()> task(std::forward<F>(fn));
    std::future<Result> future = task.get_future();
    loop_.post([&task] { task(); });
    return future.get();
  }

  /// Binds `listener` on the ingest loop; each accept it admits becomes
  /// `accept(fd)`'s session or feed (ingest thread), or is closed when
  /// `accept` refuses it.
  bool listen_on(net::TcpListener& listener, const std::string& host,
                 std::uint16_t port,
                 std::optional<VpId> (ShardedPlatform::*accept)(int fd));
  /// Refused once every session label is taken (VpLabels).
  std::optional<VpId> accept_session(int fd);
  std::optional<VpId> accept_bmp(int fd);
  /// A daemon-side transport on the ingest loop, under the ingest limits.
  std::unique_ptr<net::TcpTransport> policed_transport();
  /// Decode on arrival: sets `transport`'s inbound hook to
  /// Platform::poll_peer(vp) (ingest thread).
  void watch(VpId vp, net::TcpTransport& transport);
  /// Arms a BGP session's periodic RIB snapshots (ingest thread).
  void arm_rib_dumps(VpId vp);
  /// The stream tap of sessions and feeds: appends one update to the
  /// outbox while a publisher is attached (ingest thread).
  void push_stream(const bgp::Update& update);
  Timestamp now() const { return clock_(); }
  void install(FilterRefresh refresh);

  ShardedPlatformConfig config_;
  std::function<Timestamp()> clock_;
  metrics::Registry* registry_;
  /// mutable: call() posts into the loop, but a harvest is logically
  /// const (peer_count() & co. only read ingest state). Declared before
  /// every fd owner below, so it outlives them.
  mutable net::EventLoop loop_;
  std::thread thread_;
  Platform platform_;
  net::TcpListener listener_;
  net::TcpListener bmp_listener_;
  std::optional<net::AcceptGovernor> governor_;  // ingest thread only
  bool streaming_ = false;  // ingest thread: a publisher is attached
  /// Stream outbox: filled on the ingest thread, drained by the control
  /// thread (the one lock on the mirror path; held for a push or a swap).
  std::mutex outbox_mutex_;
  std::vector<bgp::Update> outbox_;
  StreamPublisher publisher_;

  // Merge plane (control-thread state).
  std::future<FilterRefresh> job_;  // at most one refresh in flight
  /// Start of the current refresh period; unset until the first tick.
  std::optional<Timestamp> last_refresh_;
  bool refresh_deferred_ = false;  // the due refresh was counted deferred
  metrics::Counter& refreshes_;
  metrics::Counter& refreshes_deferred_;
  metrics::Counter& purged_updates_;
  metrics::Histogram& refresh_duration_us_;
  metrics::Counter& merged_updates_;
  metrics::Counter& stream_drained_;
};

}  // namespace gill::collect
