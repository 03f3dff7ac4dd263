// Chaos soak (ISSUE 6 acceptance): a flap storm over real loopback TCP.
// Dozens-to-hundreds of GR-enabled sessions all drop and return repeatedly,
// each resyncing by delta (RFC 4724); the surviving RIBs must be
// byte-identical to a no-fault baseline that received only the true deltas,
// with zero full resyncs. A second test spikes one peer's ingest 10x and
// asserts the watermark keeps queue memory bounded.
//
// Sized for the plain ctest run; tools/soak.sh scales it up via
// GILL_SOAK_PEERS / GILL_SOAK_ROUNDS and runs it under ASan/UBSan + TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "collector/platform.hpp"
#include "daemon/daemon.hpp"
#include "mrt/mrt.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "test_util.hpp"

namespace gill::net {
namespace {

using daemon::SessionState;
using test::env_size;
using test::pfx;

/// Canonical bytes of a RIB: the TABLE_DUMP-style snapshot, sorted, MRT
/// encoded. Two tables with the same routes produce identical bytes.
std::vector<std::uint8_t> rib_bytes(const bgp::Rib& rib) {
  auto stream = rib.dump(/*vp=*/1, /*time=*/7777);
  stream.sort();
  mrt::Writer writer;
  for (const auto& update : stream) writer.write_update(update);
  return writer.buffer();
}

/// A scripted GR-capable remote router (the far end of one --dial
/// peering): every accepted connection gets a fresh FakePeer advertising
/// the RFC 4724 capability; reconnections claim a restart.
struct GrRouter {
  EventLoop& loop;
  metrics::Registry& registry;
  bgp::AsNumber as;
  TcpListener listener;
  std::unique_ptr<TcpTransport> transport;
  std::unique_ptr<daemon::FakePeer> peer;
  std::size_t connections = 0;

  GrRouter(EventLoop& loop, metrics::Registry& registry, bgp::AsNumber as)
      : loop(loop), registry(registry), as(as), listener(loop, &registry) {
    EXPECT_TRUE(listener.listen(
        "127.0.0.1", 0, [this](int fd, std::string, std::uint16_t) {
          transport = std::make_unique<TcpTransport>(
              this->loop, Role::kPeerSide, &this->registry);
          transport->adopt(fd);
          peer = std::make_unique<daemon::FakePeer>(this->as, *transport);
          peer->enable_graceful_restart(120,
                                        /*restarting=*/connections > 0);
          ++connections;
        }));
  }

  void pump() {
    if (peer) peer->poll();
    if (transport) transport->sync();
  }

  /// The router dies mid-session: FIN to the collector.
  void restart() {
    peer.reset();
    transport.reset();
  }
};

TEST(Soak, FlapStormResyncsByteIdenticalToBaseline) {
  const std::size_t peer_count = env_size("GILL_SOAK_PEERS", 40);
  const std::size_t rounds = env_size("GILL_SOAK_ROUNDS", 2);
  constexpr std::size_t kRoutes = 6;

  EventLoop loop;
  metrics::Registry registry;
  collect::PlatformConfig config;
  config.registry = &registry;
  config.retry.base = 1;
  config.retry.jitter = 0.0;
  collect::Platform platform(config);

  // The no-fault baseline: identical sessions over in-memory transports
  // whose peers never flap and send only the true deltas.
  collect::Platform baseline;

  std::vector<std::unique_ptr<GrRouter>> routers;
  std::vector<bgp::VpId> vps, base_vps;
  bgp::Timestamp now = 1000;
  for (std::size_t i = 0; i < peer_count; ++i) {
    const auto as = static_cast<bgp::AsNumber>(65001 + i);
    routers.push_back(std::make_unique<GrRouter>(loop, registry, as));
    auto transport =
        std::make_unique<TcpTransport>(loop, Role::kDaemonSide, &registry);
    ASSERT_TRUE(transport->dial("127.0.0.1", routers[i]->listener.port()));
    vps.push_back(platform.add_dialed_peer(as, now, std::move(transport)));
    platform.daemon_mut(vps[i]).enable_rib_dumps(8 * 3600);
    base_vps.push_back(baseline.add_peer(as, now));
    baseline.daemon_mut(base_vps[i]).enable_rib_dumps(8 * 3600);
  }

  const auto drive = [&](auto done, bool advance_time) {
    for (int i = 0; i < 6000; ++i) {
      if (advance_time && i < 64) ++now;  // lets reconnect backoffs elapse
      loop.run_once(2);
      platform.step(now);
      for (auto& router : routers) router->pump();
      if (done()) return true;
    }
    return done();
  };
  const auto all_established = [&] {
    for (std::size_t i = 0; i < peer_count; ++i) {
      if (platform.daemon_of(vps[i]).state() != SessionState::kEstablished ||
          !routers[i]->peer || !routers[i]->peer->established()) {
        return false;
      }
    }
    return true;
  };

  ASSERT_TRUE(drive(all_established, /*advance_time=*/false));
  baseline.step(now);
  baseline.step(now);
  for (const auto vp : vps) {
    ASSERT_TRUE(platform.daemon_of(vp).gr_negotiated());
  }

  // The live table every router serves, tracked by the test: the storm
  // mutates it per round and both platforms must converge onto it.
  struct RouteState {
    bool alive = true;
    bgp::AsPath path;
  };
  std::vector<RouteState> table(kRoutes);
  const auto prefix_of = [](std::size_t j) {
    return pfx("10.0." + std::to_string(j) + ".0/24");
  };
  const auto announce_of = [&](std::size_t i, std::size_t j) {
    bgp::Update update;
    update.prefix = prefix_of(j);
    update.path = table[j].path;
    update.path.prepend(static_cast<bgp::AsNumber>(65001 + i));
    return update;
  };
  for (std::size_t j = 0; j < kRoutes; ++j) {
    table[j].path = bgp::AsPath{static_cast<bgp::AsNumber>(100 + j)};
  }

  // Initial full feed, both sides.
  for (std::size_t i = 0; i < peer_count; ++i) {
    for (std::size_t j = 0; j < kRoutes; ++j) {
      routers[i]->peer->send_update(announce_of(i, j));
      baseline.remote(base_vps[i]).send_update(announce_of(i, j));
    }
  }
  const auto all_fed = [&] {
    for (std::size_t i = 0; i < peer_count; ++i) {
      if (platform.daemon_of(vps[i]).rib().size() != kRoutes) return false;
    }
    return true;
  };
  ASSERT_TRUE(drive(all_fed, /*advance_time=*/false));
  baseline.step(now);

  // The storm: every session drops at once, every round.
  for (std::size_t round = 0; round < rounds; ++round) {
    for (auto& router : routers) router->restart();
    const auto all_down = [&] {
      for (std::size_t i = 0; i < peer_count; ++i) {
        if (platform.daemon_of(vps[i]).state() != SessionState::kIdle) {
          return false;
        }
      }
      return true;
    };
    ASSERT_TRUE(drive(all_down, /*advance_time=*/false));
    // Helper mode engaged: tables retained as stale, nothing purged.
    for (const auto vp : vps) {
      ASSERT_TRUE(platform.daemon_of(vp).gr_syncing());
      ASSERT_GT(platform.daemon_of(vp).rib().stale_count(), 0u);
    }

    ASSERT_TRUE(drive(all_established, /*advance_time=*/true));

    // The round's delta: one route withdrawn, some paths changed, the
    // rest re-advertised byte-identically (as a restarted router would).
    const std::size_t withdrawn =
        kRoutes - 1 - (round % kRoutes);  // distinct per round (< kRoutes)
    for (std::size_t j = 0; j < kRoutes; ++j) {
      if (j == withdrawn) {
        table[j].alive = false;
      } else if (table[j].alive && (j + round) % 3 == 0) {
        table[j].path = bgp::AsPath{static_cast<bgp::AsNumber>(100 + j),
                                    static_cast<bgp::AsNumber>(200 + round)};
      }
    }
    for (std::size_t i = 0; i < peer_count; ++i) {
      for (std::size_t j = 0; j < kRoutes; ++j) {
        if (!table[j].alive) {
          if (j == withdrawn) {  // the baseline hears an honest withdrawal
            bgp::Update gone;
            gone.prefix = prefix_of(j);
            gone.withdrawal = true;
            baseline.remote(base_vps[i]).send_update(gone);
          }
          continue;  // the restarted router simply omits it
        }
        routers[i]->peer->send_update(announce_of(i, j));
        if ((j + round) % 3 == 0) {  // only true deltas reach the baseline
          baseline.remote(base_vps[i]).send_update(announce_of(i, j));
        }
      }
      routers[i]->peer->send_end_of_rib();
    }
    const auto all_synced = [&] {
      for (std::size_t i = 0; i < peer_count; ++i) {
        if (platform.daemon_of(vps[i]).stats().eor_received != round + 1 ||
            platform.daemon_of(vps[i]).gr_syncing()) {
          return false;
        }
      }
      return true;
    };
    ASSERT_TRUE(drive(all_synced, /*advance_time=*/false));
    baseline.step(now);
  }

  // Acceptance: the surviving RIBs are byte-identical to the no-fault
  // baseline, with not one full resync across the whole storm.
  for (std::size_t i = 0; i < peer_count; ++i) {
    const auto& stormed = platform.daemon_of(vps[i]);
    const auto& calm = baseline.daemon_of(base_vps[i]);
    EXPECT_EQ(rib_bytes(stormed.rib()), rib_bytes(calm.rib())) << "vp " << i;
    EXPECT_EQ(stormed.stats().resyncs, 0u);
    EXPECT_GT(stormed.stats().stale_refreshed, 0u);
    // Storage saw the same delta: no replayed-RIB inflation.
    EXPECT_EQ(stormed.stats().updates_stored, calm.stats().updates_stored);
  }
  EXPECT_EQ(registry.counter_total("gill_gr_stale_swept_total"),
            peer_count * rounds);
}

TEST(Soak, TenfoldIngestSpikeStaysUnderTheWatermark) {
  constexpr std::size_t kHighWatermark = 32 * 1024;
  constexpr bgp::Timestamp kNow = 1000;

  EventLoop loop;
  metrics::Registry registry;
  collect::PlatformConfig config;
  config.registry = &registry;
  collect::Platform platform(config);
  TcpListener bgp_listener(loop, &registry);
  TcpTransport* raw = nullptr;
  bgp::VpId session_vp = 0;
  bool accepted = false;
  ASSERT_TRUE(bgp_listener.listen(
      "127.0.0.1", 0, [&](int fd, std::string, std::uint16_t) {
        auto transport =
            std::make_unique<TcpTransport>(loop, Role::kDaemonSide, &registry);
        IngestLimits limits;
        limits.queue_high_watermark = kHighWatermark;
        transport->set_ingest_limits(limits);
        raw = transport.get();
        transport->adopt(fd);
        session_vp = platform.add_remote_peer(0, kNow, std::move(transport));
        platform.daemon_mut(session_vp).enable_rib_dumps(8 * 3600);
        accepted = true;
      }));
  TcpTransport client(loop, Role::kPeerSide, &registry);
  ASSERT_TRUE(client.dial("127.0.0.1", bgp_listener.port()));
  daemon::FakePeer peer(65010, client);

  const auto drive = [&](auto done, bool step_platform) {
    for (int i = 0; i < 6000; ++i) {
      loop.run_once(2);
      if (step_platform) platform.step(kNow);
      peer.poll();
      client.sync();
      if (done()) return true;
    }
    return done();
  };
  ASSERT_TRUE(drive(
      [&] {
        return accepted &&
               platform.daemon_of(session_vp).state() ==
                   SessionState::kEstablished &&
               peer.established();
      },
      /*step_platform=*/true));

  // The spike: ~10x a normal burst, fired while the collector's session
  // layer is stalled (platform.step withheld) — worst case for queueing.
  constexpr std::size_t kSpikeUpdates = 4000;
  peer.send_synthetic_burst(kSpikeUpdates, 10u << 24);
  std::size_t max_queue = 0;
  for (int i = 0; i < 600; ++i) {
    loop.run_once(2);
    peer.poll();
    client.sync();
    max_queue = std::max(max_queue, raw->inbound_queue_bytes());
  }
  // Bounded by the watermark plus at most one 16 KiB read chunk — NOT by
  // the size of the spike.
  EXPECT_GE(max_queue, static_cast<std::size_t>(1));
  EXPECT_LE(max_queue, kHighWatermark + 16384);
  EXPECT_TRUE(raw->reads_paused());
  EXPECT_GE(registry.counter_total("gill_overload_read_pauses_total"), 1u);

  // Service resumes: every update of the spike is eventually ingested and
  // the queue drains (backpressure shed load in time, not in data).
  ASSERT_TRUE(drive(
      [&] {
        return platform.daemon_of(session_vp).stats().updates_received ==
               kSpikeUpdates;
      },
      /*step_platform=*/true));
  for (int i = 0; i < 600; ++i) {
    max_queue = std::max(max_queue, raw->inbound_queue_bytes());
    loop.run_once(2);
    platform.step(kNow);
    peer.poll();
    client.sync();
  }
  EXPECT_LE(max_queue, kHighWatermark + 16384);
  EXPECT_FALSE(raw->reads_paused());
  EXPECT_EQ(platform.daemon_of(session_vp).rib().size(), kSpikeUpdates);
}

}  // namespace
}  // namespace gill::net
