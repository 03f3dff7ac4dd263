// The GILL platform (Fig. 9, §8-§9): manages one BGP daemon per peer,
// mirrors incoming updates for the sampling algorithms, and loads filter
// sets into the daemons. The refresh computation (Components #1/#2 over the
// mirror, then filter generation) is one free function, compute_refresh();
// its periodic schedule lives in the sharded merge plane (sharded.hpp),
// while Platform::refresh_filters() runs it once over this platform's own
// mirror. The two supporting documents (the filter description and the
// anchor-VP list) render from whatever filter set is installed.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "daemon/daemon.hpp"
#include "daemon/faults.hpp"
#include "metrics/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "sampling/gill_pipeline.hpp"

namespace gill::collect {

using bgp::Timestamp;
using bgp::VpId;

/// Flap accounting and quarantine rules: a session that keeps dying is a
/// degraded feed, and a degraded feed must never poison the sampling
/// pipeline (its mirror data is excluded from refresh_filters).
struct HealthPolicy {
  /// Flaps within `flap_window` that trigger a quarantine.
  std::size_t flap_threshold = 4;
  Timestamp flap_window = 3600;
  /// How long a quarantine lasts; 0 keeps the peer out until an operator
  /// intervenes (permanent).
  Timestamp quarantine_duration = 0;
};

/// Process-wide overload policy (DESIGN.md §11). When the memory probe
/// reads above `mem_high_watermark` bytes the platform enters a degraded
/// mode: periodic RIB snapshots are deferred (and the merge plane defers
/// its filter refresh), and the lowest-volume non-anchor peers are shed
/// (frozen, like quarantine but load-driven) a few per step. Everything
/// is re-admitted once the probe drops below `mem_low_watermark`.
struct OverloadPolicy {
  /// Bytes of process memory that trigger degraded mode; 0 disables.
  std::size_t mem_high_watermark = 0;
  /// Recovery threshold; defaults to 7/8 of the high watermark when 0.
  std::size_t mem_low_watermark = 0;
  /// Peers shed per step while memory stays above the high watermark.
  std::size_t shed_per_step = 1;
  /// Never shed more than this fraction of the peer set.
  double max_shed_fraction = 0.5;
  /// Memory probe (bytes). Defaults to the process RSS (/proc/self/statm);
  /// tests inject a deterministic source.
  std::function<std::size_t()> memory_probe;
};

struct PlatformConfig {
  sample::GillConfig gill;
  bgp::AsNumber local_as = 65000;
  /// Session resilience: every daemon reconnects after teardown with this
  /// backoff (jitter-seeded per VP). Disable for single-shot sessions.
  daemon::RetryPolicy retry;
  bool auto_reconnect = true;
  HealthPolicy health;
  /// RFC 4724 graceful-restart policy applied to every session's daemon.
  /// Negotiation still requires the peer to advertise the capability, so
  /// plain peers keep the historical purge-and-replay behavior.
  daemon::GracefulRestartConfig gr;
  OverloadPolicy overload;
  /// Registry hosting the platform's and every session's metrics; when
  /// null the platform owns a private one (see Platform::metrics()).
  metrics::Registry* registry = nullptr;
  /// Labels stamped on every platform-level instrument. The sharded
  /// collector sets {{"shard","<i>"}} so N platforms sharing one registry
  /// publish distinct series instead of clobbering one another's gauges.
  metrics::Labels metric_labels;
  /// VP-id allocator. Empty keeps the historical platform-local counter;
  /// the sharded collector injects one shared atomic counter so ids stay
  /// unique across shards and independent of which shard a session lands
  /// on (part of the shard-count-invariance contract).
  std::function<VpId()> vp_allocator;
};

enum class PeerStatus : std::uint8_t {
  kHealthy,      // session up
  kBackoff,      // torn down, waiting out the reconnect backoff
  kQuarantined,  // flapped too often: frozen and excluded from sampling
  kShed,         // frozen by overload degraded mode; re-admitted on recovery
};

std::string_view to_string(PeerStatus status) noexcept;

struct PeerHealth {
  PeerStatus status = PeerStatus::kHealthy;
  std::size_t flaps = 0;        // total teardowns observed
  std::size_t quarantines = 0;  // times the peer entered quarantine
  std::deque<Timestamp> recent_flaps;  // within the sliding flap window
  Timestamp quarantined_at = 0;
};

/// One peer's row in a HealthSnapshot: plain values, no live references.
struct PeerHealthEntry {
  VpId vp = 0;
  bgp::AsNumber as = 0;
  PeerStatus status = PeerStatus::kHealthy;
  daemon::SessionState session = daemon::SessionState::kIdle;
  std::size_t flaps = 0;
  std::size_t recent_flaps = 0;  // within the sliding flap window
  std::size_t quarantines = 0;
  Timestamp quarantined_at = 0;        // 0 when not quarantined
  Timestamp quarantine_release_at = 0;  // 0 = permanent or not quarantined

  friend bool operator==(const PeerHealthEntry&,
                         const PeerHealthEntry&) noexcept = default;
};

/// Structured per-peer health, replacing the preformatted string the old
/// health_report() returned: callers assert on fields and quarantine
/// deadlines; rendering is a separate concern (see format()).
struct HealthSnapshot {
  std::size_t quarantined = 0;
  std::size_t shed = 0;  // frozen by overload degraded mode
  std::vector<PeerHealthEntry> peers;  // ordered by VP id
};

/// Renders a snapshot as the one-line-per-peer operator report.
std::string format(const HealthSnapshot& snapshot);

/// Renders a snapshot as one JSON document (the /healthz payload of the
/// HTTP endpoint): {"peers":N,"quarantined":N,"sessions":[...]}.
std::string to_json(const HealthSnapshot& snapshot);

/// Resident set size in bytes (/proc/self/statm) — the default memory
/// probe. Public so the sharded collector can take ONE reading per tick
/// and fan the same number out to every shard's watermark check (the
/// watermark must act globally; see OverloadPolicy::memory_probe).
std::size_t process_rss_bytes();

/// What one filter refresh produces: the new filter set and anchor roster,
/// the score cache to carry into the next refresh, and how many mirrored
/// updates of quarantined VPs were dropped before sampling.
struct FilterRefresh {
  filt::FilterTable filters;
  std::vector<VpId> anchors;
  anchor::ScoreCache cache;
  std::size_t purged = 0;
};

/// The one filter-refresh computation (Fig. 9), in this order: drop the
/// updates of `quarantined` VPs (a flapping feed's mirrored data is as
/// suspect as the session that produced it), sort the window, then run
/// the GILL pipeline over it with `cache` carried from the last refresh.
/// Pure: it touches only its arguments, so it may run on a worker. `pool`
/// (may be null) fans out the pipeline's parallel stages.
FilterRefresh compute_refresh(bgp::UpdateStream mirror,
                              const std::vector<VpId>& quarantined,
                              const sample::GillConfig& gill,
                              par::ThreadPool* pool, anchor::ScoreCache cache);

/// The two published documents (§9), rendered from an installed filter set
/// and anchor roster.
std::string filter_document(const filt::FilterTable& filters);
std::string anchor_document(const std::vector<VpId>& anchors);

/// One managed peering session. `remote` is null for sessions whose peer
/// lives across a real socket (add_remote_peer): there is nothing local to
/// drive, the network delivers the peer's bytes.
struct Peer {
  VpId vp = 0;
  bgp::AsNumber as = 0;
  std::unique_ptr<daemon::Transport> transport;
  std::unique_ptr<daemon::BgpDaemon> daemon;
  std::unique_ptr<daemon::FakePeer> remote;
  daemon::SessionState last_state = daemon::SessionState::kIdle;
  PeerHealth health;
};

class Platform {
 public:
  explicit Platform(PlatformConfig config = {});

  /// Starts a new peering session; returns the assigned VP id. The remote
  /// end is a FakePeer handle the caller drives (tests / simulation).
  VpId add_peer(bgp::AsNumber peer_as, Timestamp now);

  /// Like add_peer, but the session runs over a fault-injecting transport
  /// (chaos testing): the profile's seed is XOR-varied per VP.
  VpId add_faulty_peer(bgp::AsNumber peer_as, Timestamp now,
                       const daemon::FaultProfile& profile);

  /// Starts a session whose remote end lives across a real network: the
  /// caller supplies the transport (typically a net::TcpTransport wrapping
  /// a listener-accepted socket) and no FakePeer is created. `peer_as` may
  /// be 0 when unknown; it is learned from the peer's OPEN. The daemon's
  /// retry policy is NOT armed — an inbound peer re-establishes by
  /// re-dialing us.
  VpId add_remote_peer(bgp::AsNumber peer_as, Timestamp now,
                       std::unique_ptr<daemon::Transport> transport);

  /// Like add_remote_peer, but for an *outbound* session we initiated
  /// (gill-collectord --dial): the retry policy IS armed, because our side
  /// owns the connection and the transport can re-dial on teardown.
  VpId add_dialed_peer(bgp::AsNumber peer_as, Timestamp now,
                       std::unique_ptr<daemon::Transport> transport);

  /// The scripted remote of an in-process session. Only valid for peers
  /// created by add_peer/add_faulty_peer (remote sessions have no local
  /// fake peer; see has_remote()).
  daemon::FakePeer& remote(VpId vp) { return *peers_.at(vp).remote; }
  bool has_remote(VpId vp) const {
    return peers_.at(vp).remote != nullptr;
  }
  const daemon::BgpDaemon& daemon_of(VpId vp) const {
    return *peers_.at(vp).daemon;
  }
  /// Mutable session access for operator features that post-configure a
  /// daemon (periodic RIB dumps in gill_collectord, test hooks).
  daemon::BgpDaemon& daemon_mut(VpId vp) { return *peers_.at(vp).daemon; }
  daemon::Transport& transport_of(VpId vp) { return *peers_.at(vp).transport; }
  std::size_t peer_count() const noexcept { return peers_.size(); }

  /// Per-peer session health (flap counters and quarantine state).
  const PeerHealth& health(VpId vp) const { return peers_.at(vp).health; }
  std::size_t quarantined_count() const noexcept;
  /// Overload degraded mode (memory watermark, DESIGN.md §11).
  bool degraded() const noexcept { return degraded_; }
  std::size_t shed_count() const noexcept;
  /// Structured per-peer health: status, session state, flap counters and
  /// quarantine deadlines. Render with format(snapshot) for the operator
  /// report or to_json(snapshot) for the HTTP /healthz payload.
  HealthSnapshot health_snapshot() const;

  /// The registry holding the platform's and every session's metrics;
  /// expose_prometheus()/expose_json() are the scrape endpoints.
  metrics::Registry& metrics() const noexcept { return *registry_; }

  /// Drives all sessions: polls daemons and remotes, expires hold timers,
  /// and applies the quarantine and overload policies.
  void step(Timestamp now);

  /// One synchronous refresh over this platform's own mirror: harvests the
  /// mirror (the window restarts empty) and the quarantine roster, runs
  /// compute_refresh() on the calling thread (its parallel stages on
  /// `pool` when given) and installs the result. There is no schedule
  /// here; the periodic trigger is the merge plane's (ShardedPlatform).
  void refresh_filters(par::ThreadPool* pool = nullptr);

  /// Monotonic id of the installed filter set; bumps on every install.
  std::uint64_t filter_generation() const noexcept { return generation_; }

  /// Updates this platform's sessions kept (passed the filters): the sum
  /// of their daemons' updates_stored counters, sink or no sink.
  std::size_t stored_updates() const;

  /// Routes every daemon's stored records (updates that survive the
  /// filters, plus RIB snapshots) into `archive`, the one place a session
  /// writes what it keeps. The caller owns the sink: the collector passes
  /// its archive::SegmentWriter, callers that read records back a
  /// daemon::MrtStore. Without one, kept updates are counted and dropped.
  /// Applies to existing sessions and every session added later; nullptr
  /// detaches.
  void set_archive(mrt::Sink* archive);

  /// The mirror buffer currently held for the next sampling run.
  const bgp::UpdateStream& mirror() const noexcept { return mirror_; }

  /// Drains the mirror (the window restarts empty) and hands it to the
  /// caller — the refresh's harvest primitive. Must run on the thread that
  /// owns this platform (a shard's loop thread).
  bgp::UpdateStream take_mirror();

  /// Installs a computed filter set and anchor roster and bumps the filter
  /// generation. The merge plane runs ONE pipeline over the merged mirrors,
  /// then installs the identical result into every shard's platform.
  void install_filters(filt::FilterTable filters, std::vector<VpId> anchors);

  /// VPs currently frozen by the quarantine policy (refresh input: their
  /// mirrored updates are purged before sampling).
  std::vector<VpId> quarantined_vps() const;

  const filt::FilterTable& filters() const noexcept { return filters_; }
  const std::vector<VpId>& anchors() const noexcept { return anchors_; }

  /// The two published documents (§9).
  std::string published_filter_document() const {
    return filter_document(filters_);
  }
  std::string published_anchor_document() const {
    return anchor_document(anchors_);
  }

  /// §14 "custom services": a peering operator registers forwarding rules
  /// so that updates for their prefixes are pushed to them *before* any
  /// discarding — full visibility of one's own address space in exchange
  /// for contributing a feed.
  using ForwardingSink = std::function<void(const bgp::Update&)>;
  void add_forwarding_rule(const net::Prefix& prefix, ForwardingSink sink);
  std::size_t forwarding_rule_count() const noexcept {
    return forwarding_rules_.size();
  }

  /// The live distribution plane's tap (net::StreamHub::publish): every
  /// accepted update is handed over right after the mirror tee and the
  /// custom-service forwarders, before any sampling/discarding. Excluded
  /// (quarantined/shed) peers never publish. nullptr detaches.
  void set_stream_publisher(ForwardingSink publisher) {
    stream_publisher_ = std::move(publisher);
  }

 private:
  /// Registry-backed platform-level instruments, resolved at construction.
  struct PlatformCounters {
    PlatformCounters(metrics::Registry& registry,
                     const metrics::Labels& labels);

    metrics::Counter& mirrored_updates;
    metrics::Counter& forwarded_updates;
    metrics::Counter& quarantines;
    metrics::Counter& sheds;
    metrics::Counter& readmits;
    metrics::Gauge& peers;
    metrics::Gauge& quarantined_peers;
    metrics::Gauge& degraded;
    metrics::Gauge& memory_bytes;
    metrics::Gauge& shed_peers;
  };

  void forward(const bgp::Update& update) const;
  VpId add_peer_internal(bgp::AsNumber peer_as, Timestamp now,
                         std::unique_ptr<daemon::Transport> transport,
                         bool make_fake_peer, bool arm_retry);
  /// Detects session flaps (non-Idle -> Idle transitions) and applies the
  /// quarantine policy.
  void observe_health(Peer& peer, Timestamp now);
  /// True when `vp`'s mirror data must not reach the sampling buffer
  /// (quarantined or shed).
  bool excluded(VpId vp) const {
    auto it = peers_.find(vp);
    return it != peers_.end() &&
           (it->second.health.status == PeerStatus::kQuarantined ||
            it->second.health.status == PeerStatus::kShed);
  }
  /// Memory-watermark state machine: enters/exits degraded mode and sheds
  /// the lowest-volume non-anchor peers while memory stays high.
  void update_overload(Timestamp now);
  void enter_degraded();
  void exit_degraded();
  void shed_peers(std::size_t count);

  PlatformConfig config_;
  std::unique_ptr<metrics::Registry> own_registry_;  // when none configured
  metrics::Registry* registry_;
  PlatformCounters counters_;
  std::vector<std::pair<net::Prefix, ForwardingSink>> forwarding_rules_;
  ForwardingSink stream_publisher_;
  std::map<VpId, Peer> peers_;
  VpId next_vp_ = 0;
  mrt::Sink* archive_ = nullptr;
  filt::FilterTable filters_;
  std::vector<VpId> anchors_;
  /// Temporary full mirror feeding the sampling algorithms (Fig. 9); a
  /// refresh harvests it and the next window restarts empty.
  bgp::UpdateStream mirror_;
  bool degraded_ = false;
  /// Carried across refresh_filters() calls.
  anchor::ScoreCache score_cache_;
  std::uint64_t generation_ = 0;
};

/// The platform-growth model behind Fig. 2 and Fig. 3: calibrated to the
/// endpoints the paper reports (74k ASes and ~1.1% coverage in 2023, 28K
/// updates/hour per VP on average, billions per day in total).
struct GrowthModel {
  /// Number of ASes participating in global routing in `year`.
  static double internet_ases(double year);
  /// ASes hosting at least one RIS/RV VP.
  static double vp_hosting_ases(double year);
  /// Fraction of ASes hosting a VP (Fig. 2 bottom).
  static double coverage(double year) {
    return vp_hosting_ases(year) / internet_ases(year);
  }
  /// Hourly updates exported by one VP (Fig. 3a).
  static double updates_per_vp_hour(double year);
  /// Hourly updates across all VPs (Fig. 3b; quadratic compound effect).
  static double total_updates_per_hour(double year);
  /// Total VPs (RIS+RV run several VPs per hosting AS).
  static double total_vps(double year);
};

}  // namespace gill::collect
