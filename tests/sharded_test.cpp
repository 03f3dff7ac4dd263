// Sharded ingest plane (DESIGN.md §14): the determinism contract, the
// teardown races, decode on arrival (no update waits for a tick), and the
// merge plane as the collector's only filter-refresh schedule (trigger,
// deferral, the job in flight, metrics, and one oracle shared with
// Platform::refresh_filters).
//
// The contract under test: the merged mirror and the merged RIB snapshot
// handed to the analysis pipeline are byte-identical regardless of how
// many ingest shards the sessions landed on. The test pins the two free
// variables the contract depends on — VP ids (sessions connect one at a
// time, so the global allocator hands out 0..N-1 in connect order) and
// timestamps (a fixed injected clock) — and then compares MRT encodings
// across 1-, 2- and 4-shard fleets fed the same traffic.
//
// The race tests drive abrupt peer disconnects while the control thread
// harvests mirrors and runs merge refreshes on the analysis pool; under a
// GILL_SANITIZE=thread build (`ctest -L parallel`) TSan turns them into
// data-race detectors. The flap-storm soak is env-scaled by
// GILL_SOAK_PEERS / GILL_SOAK_ROUNDS and joins tools/soak.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "collector/sharded.hpp"
#include "daemon/daemon.hpp"
#include "mrt/mrt.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "parallel/thread_pool.hpp"

namespace gill::collect {
namespace {

constexpr bgp::Timestamp kNow = 7777;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

std::vector<std::uint8_t> stream_bytes(const bgp::UpdateStream& stream) {
  mrt::Writer writer;
  for (const auto& update : stream) writer.write_update(update);
  return writer.buffer();
}

/// A fleet of loopback FakePeer clients against one ShardedPlatform, all
/// client ends driven from the test thread (the platform's shards run on
/// their own threads).
struct ClientFleet {
  net::EventLoop loop;
  metrics::Registry registry;
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<std::unique_ptr<daemon::FakePeer>> peers;

  void pump() {
    loop.run_once(1);
    for (auto& peer : peers) {
      if (peer) peer->poll();
    }
    for (auto& transport : transports) {
      if (transport) transport->sync();
    }
  }

  /// Connects one more peer and waits until BOTH ends consider the
  /// session up. Serial connects make VP ids independent of shard count:
  /// the global allocator assigns them in connect order.
  bool connect(ShardedPlatform& platform, bgp::AsNumber as) {
    // peer_count() is monotonic (dead sessions stay registered), so wait
    // for it to grow by one rather than match the live-client count.
    const std::size_t want = platform.peer_count() + 1;
    auto transport = std::make_unique<net::TcpTransport>(
        loop, net::Role::kPeerSide, &registry);
    if (!transport->dial("127.0.0.1", platform.port())) return false;
    peers.push_back(std::make_unique<daemon::FakePeer>(as, *transport));
    transports.push_back(std::move(transport));
    for (int i = 0; i < 50000; ++i) {
      if (peers.back()->established() && platform.peer_count() >= want) {
        return true;
      }
      pump();
    }
    return false;
  }

  /// FIN from the client side: the far shard sees an abrupt disconnect.
  void drop(std::size_t index) {
    peers[index].reset();
    transports[index].reset();
  }
};

/// Runs the canonical traffic pattern against a `shard_count` fleet and
/// returns the (merged mirror, merged RIB dump) MRT encodings.
struct MergedBytes {
  std::vector<std::uint8_t> mirror;
  std::vector<std::uint8_t> rib;
  std::size_t shards_used = 0;
};

MergedBytes run_canonical_traffic(std::size_t shard_count,
                                  std::size_t peer_count,
                                  std::size_t bursts_per_peer) {
  constexpr std::size_t kBurst = 10;
  MergedBytes out;

  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.shards = shard_count;
  config.platform.local_as = 65000;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.rib_dump_interval = 8 * 3600;  // enables RIB tracking; > kNow, so
                                        // no periodic snapshot ever fires
  config.clock = [] { return kNow; };
  ShardedPlatform platform(config);
  EXPECT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);
  out.shards_used = platform.shard_count();

  ClientFleet fleet;
  for (std::size_t i = 0; i < peer_count; ++i) {
    EXPECT_TRUE(
        fleet.connect(platform, static_cast<bgp::AsNumber>(65001 + i)))
        << "peer " << i << " never established (" << shard_count
        << " shards)";
  }

  for (std::size_t round = 0; round < bursts_per_peer; ++round) {
    for (std::size_t i = 0; i < peer_count; ++i) {
      fleet.peers[i]->send_synthetic_burst(
          kBurst, (10u << 24) | (static_cast<std::uint32_t>(i) << 16) |
                      (static_cast<std::uint32_t>(round) << 8));
    }
  }
  const std::size_t expected = peer_count * bursts_per_peer * kBurst;
  for (int i = 0; i < 200000 && platform.stored_updates() < expected; ++i) {
    fleet.pump();
  }
  EXPECT_EQ(platform.stored_updates(), expected);

  out.rib = stream_bytes(platform.merged_rib_dump(kNow));
  out.mirror = stream_bytes(platform.take_merged_mirror());
  platform.stop();
  return out;
}

TEST(Sharded, MergedSnapshotsByteIdenticalAcrossShardCounts) {
  const std::size_t peer_count = 12;
  const std::size_t bursts = 4;

  const MergedBytes one = run_canonical_traffic(1, peer_count, bursts);
  const MergedBytes two = run_canonical_traffic(2, peer_count, bursts);
  const MergedBytes four = run_canonical_traffic(4, peer_count, bursts);
  ASSERT_EQ(one.shards_used, 1u);
  ASSERT_EQ(two.shards_used, 2u);
  ASSERT_EQ(four.shards_used, 4u);

  ASSERT_FALSE(one.mirror.empty());
  EXPECT_EQ(one.mirror, two.mirror)
      << "merged mirror depends on the shard count (1 vs 2)";
  EXPECT_EQ(one.mirror, four.mirror)
      << "merged mirror depends on the shard count (1 vs 4)";
  ASSERT_FALSE(one.rib.empty());
  EXPECT_EQ(one.rib, two.rib)
      << "merged RIB dump depends on the shard count (1 vs 2)";
  EXPECT_EQ(one.rib, four.rib)
      << "merged RIB dump depends on the shard count (1 vs 4)";
}

TEST(Sharded, DisconnectDuringMergeIsSafe) {
  const std::size_t peer_count = 8;

  metrics::Registry registry;
  par::ThreadPool pool(2);  // merge jobs race the ingest threads
  ShardedPlatformConfig config;
  config.shards = 4;
  config.platform.local_as = 65000;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.analysis_pool = &pool;
  config.clock = [] { return kNow; };
  ShardedPlatform platform(config);
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);

  ClientFleet fleet;
  for (std::size_t i = 0; i < peer_count; ++i) {
    ASSERT_TRUE(
        fleet.connect(platform, static_cast<bgp::AsNumber>(65001 + i)));
  }
  for (std::size_t i = 0; i < peer_count; ++i) {
    fleet.peers[i]->send_synthetic_burst(
        50, (10u << 24) | (static_cast<std::uint32_t>(i) << 16));
  }
  for (int i = 0; i < 100000 && platform.stored_updates() < peer_count * 50;
       ++i) {
    fleet.pump();
  }

  // Kick off an async merge over the harvested mirrors, then yank half the
  // sessions mid-flight while the control plane keeps harvesting.
  platform.refresh_filters(kNow);
  for (std::size_t i = 0; i < peer_count; i += 2) {
    fleet.drop(i);
    platform.control_tick(kNow);
    (void)platform.health_snapshot();
    (void)platform.take_merged_mirror();
    fleet.pump();
  }
  platform.wait_for_refresh();
  EXPECT_GE(platform.filter_generation(), 1u);

  // The surviving sessions are still serviced after the churn.
  const std::size_t before = platform.stored_updates();
  for (std::size_t i = 1; i < peer_count; i += 2) {
    fleet.peers[i]->send_synthetic_burst(
        10, (172u << 24) | (static_cast<std::uint32_t>(i) << 16));
  }
  for (int i = 0;
       i < 100000 &&
       platform.stored_updates() < before + (peer_count / 2) * 10;
       ++i) {
    fleet.pump();
  }
  EXPECT_EQ(platform.stored_updates(), before + (peer_count / 2) * 10);
  platform.stop();
}

TEST(Sharded, FlapStormAcrossShardsSoak) {
  const std::size_t peer_count = env_size("GILL_SOAK_PEERS", 16);
  const std::size_t rounds = env_size("GILL_SOAK_ROUNDS", 2);

  metrics::Registry registry;
  par::ThreadPool pool(2);
  ShardedPlatformConfig config;
  config.shards = 4;
  config.platform.local_as = 65000;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.analysis_pool = &pool;
  config.clock = [] { return kNow; };
  ShardedPlatform platform(config);
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);

  ClientFleet fleet;
  for (std::size_t i = 0; i < peer_count; ++i) {
    ASSERT_TRUE(
        fleet.connect(platform, static_cast<bgp::AsNumber>(65001 + i)));
  }

  // Once a refresh installs filters, redundant VPs' updates are filtered
  // instead of stored — so the conservation invariant is stored + filtered
  // == sent, not stored == sent.
  const auto accounted = [&] {
    return platform.stored_updates() +
           static_cast<std::size_t>(
               registry.counter_total("gill_daemon_updates_filtered_total"));
  };
  std::size_t sent = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < fleet.peers.size(); ++i) {
      if (!fleet.peers[i]) continue;
      fleet.peers[i]->send_synthetic_burst(
          20, (10u << 24) | (static_cast<std::uint32_t>(i & 0xff) << 16) |
                  (static_cast<std::uint32_t>(round & 0xff) << 8));
      sent += 20;
    }
    for (int i = 0; i < 50000 && accounted() < sent; ++i) {
      fleet.pump();
    }
    ASSERT_EQ(accounted(), sent) << "round " << round;

    // The storm: every other session FINs and a replacement dials in
    // while a merge refresh is in flight.
    platform.refresh_filters(kNow);
    for (std::size_t i = round % 2; i < fleet.peers.size(); i += 2) {
      if (fleet.peers[i]) fleet.drop(i);
    }
    const std::size_t survivors = platform.peer_count();
    for (std::size_t i = 0; i < peer_count / 2; ++i) {
      ASSERT_TRUE(fleet.connect(
          platform, static_cast<bgp::AsNumber>(65101 + round * 100 + i)));
      platform.control_tick(kNow);
    }
    EXPECT_GE(platform.peer_count(), survivors + peer_count / 2);
    platform.wait_for_refresh();
  }
  EXPECT_GE(platform.filter_generation(), 1u);
  platform.stop();
}

// ---------------------------------------------------------------------------
// Decode on arrival: a session's bytes are decoded in the readable event
// that read them, so delivery waits for no tick; the tick keeps only the
// timers.
// ---------------------------------------------------------------------------

/// Counts the updates sessions keep (the archive tee), from any shard.
class CountingSink : public mrt::Sink {
 public:
  void store(const bgp::Update&) override { updates_.fetch_add(1); }
  void store_rib_entry(const bgp::Update&) override {}
  std::size_t updates() const { return updates_.load(); }

 private:
  std::atomic<std::size_t> updates_{0};
};

/// One loopback peer against `platform`, driven from the test thread.
struct LoopbackPeer {
  ClientFleet fleet;
  daemon::FakePeer* peer = nullptr;

  bool dial(ShardedPlatform& platform, bgp::AsNumber as) {
    auto transport = std::make_unique<net::TcpTransport>(
        fleet.loop, net::Role::kPeerSide, &fleet.registry);
    if (!transport->dial("127.0.0.1", platform.port())) return false;
    fleet.peers.push_back(std::make_unique<daemon::FakePeer>(as, *transport));
    fleet.transports.push_back(std::move(transport));
    peer = fleet.peers.back().get();
    return true;
  }

  /// Pumps the client end until `done()` or `deadline`; true when done.
  template <typename Done>
  bool pump_until(std::chrono::steady_clock::time_point deadline,
                  Done&& done) {
    while (!done()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      fleet.pump();
    }
    return true;
  }
};

bgp::Update probe_update() {
  bgp::Update update;
  update.prefix = net::Prefix::parse("10.9.0.0/24").value();
  update.path = bgp::AsPath{65001, 65020};
  return update;
}

TEST(DecodeOnArrival, DeliveryWaitsForNoTick) {
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.shards = 2;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.clock = [] { return kNow; };
  CountingSink archive;               // outlives the shard threads
  std::vector<bgp::Update> streamed;  // filled by drain_stream(), here
  ShardedPlatform platform(config);
  platform.set_archive(&archive);
  platform.set_stream_publisher(
      [&streamed](std::span<const bgp::Update> batch) {
        streamed.insert(streamed.end(), batch.begin(), batch.end());
      });
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/60'000);  // no shard tick fires in this test

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  LoopbackPeer client;
  ASSERT_TRUE(client.dial(platform, 65001));
  // The collector's KEEPALIVE answers the peer's OPEN: it was decoded on
  // arrival, not at a tick.
  ASSERT_TRUE(client.pump_until(deadline,
                                [&] { return client.peer->established(); }))
      << "the peer's OPEN was not answered within 1 s";

  const bgp::Update update = probe_update();
  client.peer->send_update(update);
  ASSERT_TRUE(client.pump_until(deadline, [&] {
    platform.drain_stream();
    return archive.updates() == 1 && streamed.size() == 1;
  })) << archive.updates() << " archived, " << streamed.size()
      << " streamed within 1 s";
  EXPECT_EQ(streamed[0].vp, 0u);
  EXPECT_EQ(streamed[0].prefix, update.prefix);
  EXPECT_EQ(streamed[0].path, update.path);
  platform.stop();
}

TEST(DecodeOnArrival, ShedSessionIsNotDecoded) {
  std::atomic<std::size_t> memory{100};
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.shards = 1;
  config.platform.registry = &registry;
  config.platform.overload.mem_high_watermark = 1000;
  config.platform.overload.max_shed_fraction = 1.0;
  config.platform.overload.memory_probe = [&memory] { return memory.load(); };
  config.component1_refresh = 0;
  config.clock = [] { return kNow; };
  CountingSink archive;
  ShardedPlatform platform(config);
  platform.set_archive(&archive);
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/60'000);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  LoopbackPeer client;
  ASSERT_TRUE(client.dial(platform, 65001));
  ASSERT_TRUE(client.pump_until(deadline,
                                [&] { return client.peer->established(); }));

  // Memory spikes: the control tick samples it and the shard's next step
  // sheds the only session.
  memory = 2000;
  platform.control_tick(kNow);
  platform.with_shard(0, [](Platform& shard) { shard.step(kNow); });
  ASSERT_EQ(platform.health_snapshot().shed, 1u);

  client.peer->send_update(probe_update());
  const auto queued = [&] {
    return platform.with_shard(0, [](Platform& shard) {
      return shard.transport_of(0).to_daemon.size();
    });
  };
  // The bytes reach the session's queue, and the readable event that
  // queued them decoded nothing.
  ASSERT_TRUE(client.pump_until(deadline, [&] { return queued() > 0; }));
  EXPECT_EQ(platform.with_shard(0,
                                [](Platform& shard) {
                                  return shard.daemon_of(0)
                                      .stats()
                                      .updates_received;
                                }),
            0u);
  EXPECT_EQ(archive.updates(), 0u);
  platform.stop();
}

// ---------------------------------------------------------------------------
// The merge plane: the collector's only filter-refresh schedule.
// ---------------------------------------------------------------------------

constexpr bgp::Timestamp kRefreshAt = 10'000;

/// In-process sessions (FakePeer remotes over the in-memory transport)
/// spread round-robin over a fleet's shards. `on_shard(s, fn)` runs `fn`
/// on shard s's Platform: a lone Platform is the one-shard case, and a
/// ShardedPlatform that is never start()ed runs every with_shard() call
/// inline, so the traffic and its timestamps are deterministic in both.
class InMemorySessions {
 public:
  using OnShard = std::function<void(std::size_t,
                                     const std::function<void(Platform&)>&)>;

  explicit InMemorySessions(Platform& platform)
      : shards_(1), on_shard_([&platform](std::size_t, const auto& fn) {
          fn(platform);
        }) {}
  explicit InMemorySessions(ShardedPlatform& platform)
      : shards_(platform.shard_count()),
        on_shard_([&platform](std::size_t shard, const auto& fn) {
          platform.with_shard(shard, fn);
        }) {}

  /// Adds `count` peers (VP ids 0..count-1 in order) and establishes them.
  void add_peers(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t shard = i % shards_;
      on_shard_(shard, [&](Platform& platform) {
        sessions_.emplace_back(
            shard,
            platform.add_peer(static_cast<bgp::AsNumber>(65010 + i), 0));
      });
    }
    step(1);
  }

  void step(bgp::Timestamp now) {
    for (std::size_t shard = 0; shard < shards_; ++shard) {
      on_shard_(shard, [now](Platform& platform) { platform.step(now); });
    }
  }

  /// Redundant traffic: every VP announces the same correlated churn on
  /// two prefixes, six rounds `spacing` seconds apart from `base`.
  void feed_window(bgp::Timestamp base, bgp::Timestamp spacing) {
    for (int round = 0; round < 6; ++round) {
      for (const char* prefix : {"10.0.0.0/24", "10.0.1.0/24"}) {
        bgp::Update update;
        update.prefix = net::Prefix::parse(prefix).value();
        update.path = round % 2 == 0 ? bgp::AsPath{65010, 65020}
                                     : bgp::AsPath{65010, 65021, 65020};
        for (const auto& [shard, vp] : sessions_) {
          on_shard_(shard, [&, vp = vp](Platform& platform) {
            platform.remote(vp).send_update(update);
          });
        }
        step(static_cast<bgp::Timestamp>(base + round * spacing));
      }
    }
  }

 private:
  std::size_t shards_;
  OnShard on_shard_;
  std::vector<std::pair<std::size_t, VpId>> sessions_;  // (shard, vp)
};

/// Sum of every shard's mirror (the next window).
std::size_t mirrored_across_shards(ShardedPlatform& platform) {
  std::size_t total = 0;
  for (std::size_t shard = 0; shard < platform.shard_count(); ++shard) {
    total += platform.with_shard(
        shard, [](Platform& p) { return p.mirror().size(); });
  }
  return total;
}

// The identity spec for every refresh path: one in-memory Platform refreshed
// synchronously, and 1-, 2- and 4-shard merge planes refreshing inline and
// on a 2-worker pool, all install byte-identical published documents.
TEST(MergePlane, EveryRefreshPathInstallsTheSameFilters) {
  constexpr std::size_t kPeers = 4;
  Platform reference;
  InMemorySessions reference_sessions(reference);
  reference_sessions.add_peers(kPeers);
  reference_sessions.feed_window(2, 1000);
  reference.refresh_filters();
  ASSERT_GT(reference.filters().drop_rule_count(), 0u);
  const std::string filter_doc = reference.published_filter_document();
  const std::string anchor_doc = reference.published_anchor_document();

  par::ThreadPool pool(2);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (par::ThreadPool* executor : {static_cast<par::ThreadPool*>(nullptr),
                                      &pool}) {
      const std::string run = std::to_string(shards) + " shards, " +
                              (executor != nullptr ? "pool" : "inline");
      metrics::Registry registry;
      ShardedPlatformConfig config;
      config.shards = shards;
      config.platform.registry = &registry;
      config.component1_refresh = 0;
      config.analysis_pool = executor;
      ShardedPlatform platform(config);
      InMemorySessions sessions(platform);
      sessions.add_peers(kPeers);
      sessions.feed_window(2, 1000);

      platform.refresh_filters(kRefreshAt);
      platform.wait_for_refresh();
      ASSERT_EQ(platform.filter_generation(), 1u) << run;
      EXPECT_EQ(platform.published_filter_document(), filter_doc) << run;
      EXPECT_EQ(platform.published_anchor_document(), anchor_doc) << run;
      for (std::size_t shard = 0; shard < shards; ++shard) {
        platform.with_shard(shard, [&](Platform& installed) {
          EXPECT_EQ(installed.filter_generation(), 1u) << run;
          EXPECT_EQ(installed.published_filter_document(), filter_doc) << run;
          EXPECT_EQ(installed.published_anchor_document(), anchor_doc) << run;
        });
      }
    }
  }
}

TEST(MergePlane, SessionsKeepFlowingWhileARefreshIsInFlight) {
  metrics::Registry registry;
  par::ThreadPool pool(1);
  ShardedPlatformConfig config;
  config.shards = 2;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.analysis_pool = &pool;
  config.rib_dump_interval = 8 * 3600;  // tracks RIBs; never fires at kNow
  config.clock = [] { return kNow; };
  ShardedPlatform platform(config);
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);
  ClientFleet fleet;
  ASSERT_TRUE(fleet.connect(platform, 65001));
  ASSERT_TRUE(fleet.connect(platform, 65002));
  const auto send_window = [&](std::size_t per_peer, std::uint32_t base) {
    // Counted before sending: the shards decode on arrival, so a count
    // taken after the sends may already include some of them.
    const std::size_t want = platform.stored_updates() + 2 * per_peer;
    for (std::size_t i = 0; i < fleet.peers.size(); ++i) {
      fleet.peers[i]->send_synthetic_burst(
          per_peer, base | (static_cast<std::uint32_t>(i) << 16));
    }
    for (int i = 0; i < 100000 && platform.stored_updates() < want; ++i) {
      fleet.pump();
    }
    ASSERT_EQ(platform.stored_updates(), want);
  };
  send_window(10, 10u << 24);

  // Block the pool's only worker: the refresh job stays queued behind it.
  std::promise<void> release;
  pool.post([gate = release.get_future().share()] { gate.wait(); });
  platform.refresh_filters(kNow);
  ASSERT_TRUE(platform.refresh_in_flight());
  EXPECT_EQ(platform.filter_generation(), 0u) << "nothing installed yet";

  // The shards keep serving sessions: a second window reaches the RIBs,
  // the stored-update counts and the mirror while the job waits.
  send_window(15, 11u << 24);
  EXPECT_EQ(platform.merged_rib_dump(kNow).size(), 50u);
  EXPECT_EQ(mirrored_across_shards(platform), 30u)
      << "the next window accumulates";
  // A second refresh while one is in flight is a no-op: it neither
  // harvests the next window nor replaces the running job.
  platform.refresh_filters(kNow);
  platform.control_tick(kNow);
  EXPECT_TRUE(platform.refresh_in_flight());
  EXPECT_EQ(mirrored_across_shards(platform), 30u);

  release.set_value();
  platform.wait_for_refresh();
  EXPECT_FALSE(platform.refresh_in_flight());
  EXPECT_EQ(platform.filter_generation(), 1u);
  EXPECT_EQ(registry.counter_total("gill_collector_filter_refreshes_total"),
            1u);
  EXPECT_EQ(mirrored_across_shards(platform), 30u)
      << "the in-flight window's mirror survives the install";
  const HealthSnapshot health = platform.health_snapshot();
  ASSERT_EQ(health.peers.size(), 2u);
  for (const auto& peer : health.peers) {
    EXPECT_EQ(peer.session, daemon::SessionState::kEstablished)
        << "vp" << peer.vp << " survives the install";
  }
  platform.stop();
}

TEST(MergePlane, TriggerFiresAfterItsPeriodAndRearms) {
  metrics::Registry registry;
  par::ThreadPool pool(1);
  ShardedPlatformConfig config;
  config.shards = 2;
  config.platform.registry = &registry;
  // Seconds-scale period: every step stays inside the 90 s hold timer.
  config.component1_refresh = 100;
  config.analysis_pool = &pool;
  ShardedPlatform platform(config);
  InMemorySessions sessions(platform);
  sessions.add_peers(2);
  // Control ticks at `now` until one of them installs the submitted job.
  const auto tick_until_installed = [&](bgp::Timestamp now) {
    const std::uint64_t want = platform.filter_generation() + 1;
    for (int i = 0; i < 10000 && platform.filter_generation() < want; ++i) {
      platform.control_tick(now);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  platform.control_tick(1);  // the first period starts here

  sessions.feed_window(2, 10);
  platform.control_tick(100);
  EXPECT_FALSE(platform.refresh_in_flight()) << "not due yet";
  platform.control_tick(101);
  EXPECT_TRUE(platform.refresh_in_flight());
  EXPECT_EQ(mirrored_across_shards(platform), 0u)
      << "the window was harvested";
  tick_until_installed(101);
  EXPECT_EQ(platform.filter_generation(), 1u);

  // The trigger re-armed at 101: the next window refreshes at 201.
  sessions.feed_window(110, 10);
  platform.control_tick(200);
  EXPECT_FALSE(platform.refresh_in_flight());
  platform.control_tick(201);
  EXPECT_TRUE(platform.refresh_in_flight());
  tick_until_installed(201);
  EXPECT_EQ(platform.filter_generation(), 2u);
  EXPECT_EQ(registry.counter_total("gill_collector_filter_refreshes_total"),
            2u);
}

TEST(MergePlane, DeferredRefreshRunsAsSoonAsMemoryRecovers) {
  std::size_t memory = 100;
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.shards = 2;
  config.platform.registry = &registry;
  config.platform.overload.mem_high_watermark = 1000;
  config.platform.overload.mem_low_watermark = 500;
  config.platform.overload.memory_probe = [&memory] { return memory; };
  config.component1_refresh = 100;
  ShardedPlatform platform(config);
  InMemorySessions sessions(platform);
  sessions.add_peers(2);
  platform.control_tick(1);
  sessions.feed_window(2, 10);

  // Memory spikes: the control tick samples the probe, and each shard's
  // watermark check reads that sample on its next step.
  memory = 2000;
  platform.control_tick(60);
  sessions.step(60);
  ASSERT_TRUE(platform.degraded());

  // Degraded: the due refresh is deferred, not run, and counted once.
  platform.control_tick(101);
  sessions.step(120);
  platform.control_tick(120);
  EXPECT_EQ(platform.filter_generation(), 0u);
  EXPECT_EQ(
      registry.counter_total("gill_overload_refreshes_deferred_total"), 1u);

  // Recovery: the refresh runs at the first tick after memory drops, not a
  // full period after the deferral.
  memory = 100;
  platform.control_tick(130);
  sessions.step(130);
  ASSERT_FALSE(platform.degraded());
  platform.control_tick(131);
  EXPECT_EQ(platform.filter_generation(), 1u);
  EXPECT_GT(platform.filters().drop_rule_count(), 0u);
}

TEST(MergePlane, SerialEnvRunsTheRefreshInline) {
  ::setenv("GILL_ANALYSIS_SERIAL", "1", 1);
  metrics::Registry registry;
  par::ThreadPool pool(2);
  ShardedPlatformConfig config;
  config.shards = 2;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.analysis_pool = &pool;
  ShardedPlatform platform(config);
  InMemorySessions sessions(platform);
  sessions.add_peers(2);
  sessions.feed_window(2, 1000);

  platform.refresh_filters(kRefreshAt);
  EXPECT_FALSE(platform.refresh_in_flight()) << "ran on the control thread";
  EXPECT_EQ(platform.filter_generation(), 1u);
  EXPECT_GT(platform.filters().drop_rule_count(), 0u);
  EXPECT_EQ(pool.shards_executed(), 0u) << "the pool never ran a stage";
  ::unsetenv("GILL_ANALYSIS_SERIAL");
}

// One merge-plane refresh records one refresh fleet-wide, not one per shard.
TEST(MergePlane, RecordsEachRefreshOnceAcrossShards) {
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.shards = 4;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  ShardedPlatform platform(config);
  InMemorySessions sessions(platform);
  sessions.add_peers(4);
  sessions.feed_window(2, 1000);

  platform.refresh_filters(kRefreshAt);
  ASSERT_EQ(platform.filter_generation(), 1u);
  EXPECT_EQ(registry.counter_total("gill_collector_filter_refreshes_total"),
            1u);
  EXPECT_EQ(registry
                .histogram("gill_collector_filter_refresh_duration_us", "")
                .count(),
            1u);
  EXPECT_GT(registry.counter_total("gill_collector_score_cache_hits_total") +
                registry.counter_total(
                    "gill_collector_score_cache_misses_total"),
            0u);
}

}  // namespace
}  // namespace gill::collect
