// The custom BGP daemon of §8 (C in the paper, C++ here): one daemon
// instance peers with exactly one BGP router, decodes RFC 4271 messages,
// applies GILL's filters to incoming updates, and stores what survives in
// the MRT archive. An in-memory byte transport makes sessions fully
// testable and lets the fake-peer load experiments of Table 1 run without
// a network; net::TcpTransport carries the same byte stream over a real
// socket for live peering (gill_collectord).
//
// Sessions are restartable: a torn-down daemon re-enters Idle, waits out an
// exponential backoff (RetryPolicy) and re-initiates the handshake, clearing
// its per-session RIB so the peer's replay repopulates it. Faults are
// injected below this layer by FaultyTransport (faults.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "bgp/rib.hpp"
#include "filters/filters.hpp"
#include "metrics/metrics.hpp"
#include "mrt/mrt.hpp"
#include "wire/messages.hpp"

namespace gill::daemon {

using bgp::Timestamp;
using bgp::Update;
using bgp::VpId;

/// One direction of an in-memory byte pipe: a contiguous buffer with a head
/// index (ring-like), so the hot ingest path appends and drains in bulk
/// instead of copying byte by byte through a deque.
class ByteQueue {
 public:
  void write(std::span<const std::uint8_t> data);
  /// Drains up to `max` bytes into a contiguous vector.
  std::vector<std::uint8_t> read(std::size_t max = SIZE_MAX);
  /// Zero-copy view of every unread byte (valid until the next write).
  /// peek + consume is the partial-drain path socket senders need: a short
  /// send() keeps the unsent tail queued without copying it back.
  std::span<const std::uint8_t> peek() const noexcept {
    return {buffer_.data() + head_, size()};
  }
  /// Discards the first `n` unread bytes (clamped to size()).
  void consume(std::size_t n) noexcept;
  std::size_t size() const noexcept { return buffer_.size() - head_; }
  bool empty() const noexcept { return head_ == buffer_.size(); }
  void clear() noexcept {
    buffer_.clear();
    head_ = 0;
  }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;  // first unread byte
};

/// A duplex in-memory transport. Endpoint A is the daemon, B the peer.
/// Writes go through virtual hooks so decorators (FaultyTransport) can
/// intercept at message granularity — both endpoints write exactly one
/// encoded message per call. The connection can drop like a TCP reset:
/// while down, writes are discarded and `epoch()` tells endpoints to throw
/// away half-parsed buffers. net::TcpTransport subclasses this to carry
/// one side of the pipe over a real socket (the unused direction's queue
/// becomes the send backlog).
struct Transport {
  Transport() = default;
  virtual ~Transport() = default;

  ByteQueue to_daemon;
  ByteQueue to_peer;

  virtual void write_to_daemon(std::span<const std::uint8_t> message) {
    if (connected_) to_daemon.write(message);
  }
  virtual void write_to_peer(std::span<const std::uint8_t> message) {
    if (connected_) to_peer.write(message);
  }

  bool connected() const noexcept { return connected_; }
  /// Bumped on every disconnect; endpoints that observe a new epoch must
  /// drop any partially-received bytes.
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// A TCP reset: both in-flight directions are lost. Virtual so a real
  /// socket transport (net::TcpTransport) can close its fd when an
  /// endpoint tears the session down.
  virtual void disconnect() {
    connected_ = false;
    ++epoch_;
    to_daemon.clear();
    to_peer.clear();
  }
  /// Re-opens the pipe (a fresh TCP connection).
  virtual void reconnect() { connected_ = true; }
  /// Per-step housekeeping for what the transport cannot do as it happens
  /// (net::TcpTransport flushes its backlog, resumes paused reads and
  /// re-dials); Platform::step() calls it for every session and BMP feed.
  /// An in-memory pipe has none.
  virtual void sync() {}

 private:
  bool connected_ = true;
  std::uint64_t epoch_ = 0;
};

/// RFC 4271 session states (simplified: no TCP layer, so Connect/Active
/// collapse into kConnect).
enum class SessionState : std::uint8_t {
  kIdle,
  kConnect,
  kOpenSent,
  kOpenConfirm,
  kEstablished,
};

std::string_view to_string(SessionState state) noexcept;

/// Exponential backoff with deterministic jitter for session re-initiation.
/// `delay(attempt)` is a pure function of the policy and the attempt index,
/// so a reconnect schedule is exactly reproducible under a fixed seed.
struct RetryPolicy {
  Timestamp base = 1;        // first retry delay (seconds)
  Timestamp cap = 64;        // backoff ceiling
  double multiplier = 2.0;   // geometric growth per attempt
  double jitter = 0.25;      // subtract up to this fraction, seeded
  std::uint64_t jitter_seed = 0;

  /// Delay before reconnect attempt `attempt` (0-based), in
  /// [raw * (1 - jitter), raw] where raw = min(cap, base * multiplier^n).
  Timestamp delay(std::size_t attempt) const;
};

/// RFC 4724 graceful-restart policy for the collector's (helper) side of a
/// session. When enabled and the peer also advertises the capability, a
/// session drop retains the RIB as *stale* instead of purging it: entries
/// the peer re-advertises before its End-of-RIB are refreshed in place,
/// entries it does not are swept as synthetic withdrawals, and the whole
/// stale set is flushed if the peer stays away past the restart window.
/// A flap therefore costs a delta, not a full RIB replay, and mirrors /
/// filters / storage see no spurious withdraw storm.
struct GracefulRestartConfig {
  bool enabled = true;
  /// Restart time advertised in our OPEN (12-bit wire field, seconds).
  std::uint16_t restart_time = 120;
  /// Upper bound on stale-route retention, regardless of the restart time
  /// the peer advertised.
  Timestamp max_stale_time = 120;
};

/// An in-memory MRT sink for callers that read the stored records back
/// (tests, the in-memory harness, examples). The collector's archive is
/// archive::SegmentWriter; both implement mrt::Sink.
class MrtStore : public mrt::Sink {
 public:
  void store(const Update& update) override { writer_.write_update(update); }
  void store_rib_entry(const Update& entry) override {
    writer_.write_rib_entry(entry);
  }
  std::size_t stored() const noexcept { return writer_.record_count(); }
  const mrt::Writer& writer() const noexcept { return writer_; }
  bool save(const std::string& path) const { return writer_.save(path); }

 private:
  mrt::Writer writer_;
};

/// A value snapshot of one session's counters, read from the metric
/// registry by BgpDaemon::stats(). This is a *view*: the authoritative
/// state lives in registry counters (gill_daemon_*_total{vp=...}) that the
/// daemon increments on the hot path; nothing mutates this struct.
struct DaemonStats {
  std::size_t messages_received = 0;
  std::size_t updates_received = 0;   // individual prefix announcements
  std::size_t updates_filtered = 0;   // discarded by the filter table
  std::size_t updates_stored = 0;     // kept by the filters, sink or not
  std::size_t garbage_bytes = 0;      // resynchronized bytes
  std::size_t notifications_sent = 0;
  std::size_t decode_errors = 0;      // malformed messages / garbage runs
  std::size_t resyncs = 0;            // RIB cleared for replay on reconnect
  std::size_t reconnects = 0;         // OPENs re-sent after a teardown
  std::size_t keepalives_sent = 0;    // generated by tick()
  // RFC 4724 graceful restart (gill_gr_*).
  std::size_t gr_negotiated = 0;      // sessions established with GR agreed
  std::size_t eor_sent = 0;           // End-of-RIB markers we sent
  std::size_t eor_received = 0;       // End-of-RIB markers the peer sent
  std::size_t stale_retained = 0;     // routes kept stale at teardown
  std::size_t stale_refreshed = 0;    // identical re-advertisements suppressed
  std::size_t stale_swept = 0;        // not re-advertised, withdrawn at EoR
  std::size_t stale_expired = 0;      // flushed when the restart window closed
};

/// Registry-backed instruments for one peering session, resolved ONCE at
/// construction (labeled {vp="..."}) so every hot-path increment is a
/// single relaxed atomic add — no per-event name/label lookups.
struct SessionCounters {
  SessionCounters(metrics::Registry& registry, VpId vp);

  metrics::Counter& messages_received;
  metrics::Counter& updates_received;
  metrics::Counter& updates_filtered;
  metrics::Counter& updates_stored;
  metrics::Counter& garbage_bytes;
  metrics::Counter& notifications_sent;
  metrics::Counter& resyncs;
  metrics::Counter& reconnects;
  metrics::Counter& keepalives_sent;
  metrics::Counter& gr_negotiated;
  metrics::Counter& eor_sent;
  metrics::Counter& eor_received;
  metrics::Counter& stale_retained;
  metrics::Counter& stale_refreshed;
  metrics::Counter& stale_swept;
  metrics::Counter& stale_expired;
  metrics::Histogram& message_bytes;  // wire size of each decoded message
};

/// One BGP daemon instance (one peering session).
class BgpDaemon {
 public:
  /// `filters` and `store` may be null (no filtering / no storage; kept
  /// updates are counted in updates_stored either way).
  /// `registry` is where the session's counters are registered (labeled
  /// {vp="..."}); when null the daemon owns a private registry, so
  /// stand-alone sessions stay isolated from each other.
  BgpDaemon(VpId vp, bgp::AsNumber local_as, Transport& transport,
            const filt::FilterTable* filters, MrtStore* store,
            metrics::Registry* registry = nullptr);

  /// Initiates the session (sends OPEN, enters OpenSent).
  void start(Timestamp now);

  /// Processes pending bytes from the peer; `now` stamps stored updates.
  void poll(Timestamp now);

  /// Timer tick: expires the hold timer, generates keepalives, and — when a
  /// retry policy is armed — re-initiates torn-down sessions after backoff.
  void tick(Timestamp now);

  /// Arms automatic session re-initiation: every teardown (hold expiry,
  /// NOTIFICATION, FSM error, transport reset) schedules a reconnect after
  /// `policy.delay(attempt)`. Without a policy the session is single-shot.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  bool auto_reconnect() const noexcept { return retry_.has_value(); }

  /// RFC 4724 policy (helper mode). Takes effect on the next OPEN we send;
  /// GR is *negotiated* only when the peer's OPEN also carries the
  /// capability, so sessions with plain peers behave exactly as before
  /// (full purge + resync on reconnect).
  void set_graceful_restart(const GracefulRestartConfig& gr) { gr_ = gr; }
  /// True while the current (or most recent) Established session agreed GR.
  bool gr_negotiated() const noexcept { return gr_negotiated_; }
  /// True between a GR teardown and the resync sweep (stale routes held).
  bool gr_syncing() const noexcept { return gr_syncing_; }
  /// When stale routes are held, the time they get flushed; 0 otherwise.
  Timestamp stale_deadline() const noexcept { return stale_deadline_; }
  /// When a reconnect is pending, the time it fires; 0 otherwise.
  Timestamp next_reconnect_at() const noexcept { return reconnect_at_; }

  SessionState state() const noexcept { return state_; }
  /// A consistent value snapshot of the session counters (reads the
  /// registry; the returned struct is a copy, never live state).
  DaemonStats stats() const noexcept;
  /// The registry holding this session's counters.
  metrics::Registry& metrics() const noexcept { return *registry_; }
  bgp::AsNumber peer_as() const noexcept { return peer_as_; }

  /// The last NOTIFICATION this daemon sent (teardown code/subcode), if
  /// any. The transport closes right after the send, so this is the only
  /// place the cause of death stays observable.
  const std::optional<wire::NotificationMessage>& last_notification_sent()
      const noexcept {
    return last_notification_;
  }

  /// Pre-filter tap used by the orchestrator's temporary mirroring
  /// (Fig. 9): sees every decoded update before the filters run.
  void set_mirror(std::function<void(const Update&)> mirror) {
    mirror_ = std::move(mirror);
  }

  /// Archive sink for kept updates and RIB snapshots, written after the
  /// constructor's `store` when both are set. A collector Platform passes
  /// no store and points every daemon at its one archive, so records land
  /// in the caller's sink (the on-disk segment writer in gill-collectord).
  void set_archive(mrt::Sink* archive) { archive_ = archive; }

  /// §8: "store either RIBs every eight hours or every update". Enables
  /// periodic RIB snapshots: the daemon tracks the session's table and
  /// tick() writes a TABLE_DUMP-style snapshot every `interval` seconds
  /// while the session is Established.
  void enable_rib_dumps(Timestamp interval) { rib_dump_interval_ = interval; }
  const bgp::Rib& rib() const noexcept { return rib_; }
  std::size_t rib_dumps_written() const noexcept { return rib_dumps_; }

  /// Overload degraded mode: while set, tick() skips periodic RIB
  /// snapshots (they re-arm as soon as the platform recovers).
  void set_defer_rib_dumps(bool defer) { defer_rib_dumps_ = defer; }

 private:
  void send(const wire::Message& message);
  wire::OpenMessage make_open() const;
  void handle(const wire::Message& message, Timestamp now);
  /// Tears the session down. When `notify` is set a NOTIFICATION with
  /// `code`/`subcode` is sent first (pointless on a dead transport, where
  /// the write is silently dropped). Schedules a reconnect if armed.
  void teardown(Timestamp now, bool notify, std::uint8_t code,
                std::uint8_t subcode);
  void reconnect_now(Timestamp now);
  void ingest_update(const wire::UpdateMessage& update, Timestamp now);
  /// The shared per-update path: mirror, RIB, filters, storage. Synthetic
  /// updates (stale-route sweeps) skip the updates_received counter — they
  /// were never on the wire.
  void process_update(Update update, bool synthetic);
  /// Withdraws every still-stale RIB entry through process_update and ends
  /// the resync window; `counter` says why (swept at EoR vs. expired).
  void flush_stale(Timestamp now, metrics::Counter& counter);
  /// Bumps gill_daemon_decode_errors_total{vp=...,kind=...}; the per-kind
  /// children are resolved lazily (errors are off the hot path).
  void count_decode_error(wire::DecodeError error);

  /// Number of wire::DecodeError enumerators (the kind-label cardinality).
  static constexpr std::size_t kDecodeErrorKinds = 8;

  VpId vp_;
  bgp::AsNumber local_as_;
  Transport* transport_;
  const filt::FilterTable* filters_;
  MrtStore* store_;
  mrt::Sink* archive_ = nullptr;
  std::unique_ptr<metrics::Registry> own_registry_;  // when none was supplied
  metrics::Registry* registry_;
  SessionCounters counters_;
  std::array<metrics::Counter*, kDecodeErrorKinds> decode_error_counters_{};
  SessionState state_ = SessionState::kIdle;
  bgp::AsNumber peer_as_ = 0;
  std::uint16_t hold_time_ = 90;
  Timestamp last_heard_ = 0;
  Timestamp last_keepalive_ = 0;
  std::vector<std::uint8_t> pending_;
  bool reset_requested_ = false;
  bool in_garbage_run_ = false;
  std::function<void(const Update&)> mirror_;
  bgp::Rib rib_;
  Timestamp rib_dump_interval_ = 0;  // 0 = disabled
  Timestamp last_rib_dump_ = 0;
  std::size_t rib_dumps_ = 0;
  bool defer_rib_dumps_ = false;
  // RFC 4724 graceful restart (helper mode).
  GracefulRestartConfig gr_;
  bool peer_gr_enabled_ = false;       // peer's OPEN carried capability 64
  std::uint16_t peer_gr_restart_time_ = 0;
  bool gr_negotiated_ = false;         // both sides agreed, this session
  bool gr_syncing_ = false;            // stale routes held, awaiting EoR
  Timestamp stale_deadline_ = 0;
  // Reconnect FSM bookkeeping.
  std::optional<RetryPolicy> retry_;
  std::size_t attempt_ = 0;          // consecutive failed sessions
  Timestamp reconnect_at_ = 0;       // 0 = no reconnect pending
  bool ever_established_ = false;
  std::uint64_t seen_epoch_ = 0;
  std::optional<wire::NotificationMessage> last_notification_;
};

/// A scripted remote router for tests and load generation: completes the
/// handshake and replays an update stream onto the wire. Survives
/// connection resets: a new transport epoch clears its half-parsed buffer
/// and it re-answers the daemon's next OPEN.
class FakePeer {
 public:
  FakePeer(bgp::AsNumber as, Transport& transport)
      : as_(as), transport_(&transport), seen_epoch_(transport.epoch()) {}

  /// Responds to daemon messages (handshake). Call after daemon polls.
  void poll();

  /// Sends one BGP UPDATE for `update` (announcement or withdrawal).
  void send_update(const Update& update);

  /// Sends a burst of `count` synthetic updates for distinct prefixes.
  void send_synthetic_burst(std::size_t count, std::uint32_t prefix_base);

  /// Refreshes the daemon's hold timer.
  void send_keepalive();

  /// Advertises RFC 4724 GR in this peer's OPEN replies; `restarting` sets
  /// the Restart State flag (the peer claims it just came back).
  void enable_graceful_restart(std::uint16_t restart_time = 120,
                               bool restarting = false) {
    gr_enabled_ = true;
    gr_restart_time_ = restart_time;
    gr_restarting_ = restarting;
  }

  /// Sends the RFC 4724 End-of-RIB marker (a minimal empty UPDATE).
  void send_end_of_rib();

  bool established() const noexcept { return established_; }

 private:
  void send(const wire::Message& message);

  bgp::AsNumber as_;
  Transport* transport_;
  bool established_ = false;
  bool gr_enabled_ = false;
  bool gr_restarting_ = false;
  std::uint16_t gr_restart_time_ = 120;
  std::vector<std::uint8_t> pending_;
  std::uint64_t seen_epoch_ = 0;
};

/// Table 1 capacity model: a single CPU processes updates at measured
/// per-stage costs; offered load beyond capacity is lost. Defaults are
/// calibrated from this repository's micro-benchmarks (decode+filter is
/// cheap; the disk write dominates, as §8 observes).
struct CapacityModel {
  double decode_cost_us = 1.0;   // wire decode per update
  double filter_cost_us = 0.5;   // hash-table filter lookup
  double store_cost_us = 19.5;   // MRT encode + disk write
  double cpu_budget_us_per_s = 1e6;  // one core

  /// Fraction of updates lost given `peers` sessions each sending
  /// `updates_per_hour`, with filters discarding `match_fraction` of the
  /// updates before the store stage (0 when filters are off).
  double loss_fraction(std::size_t peers, double updates_per_hour,
                       bool filters_on, double match_fraction) const;
};

}  // namespace gill::daemon
