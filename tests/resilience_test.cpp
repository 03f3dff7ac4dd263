// Session resilience: fault injection at the transport layer, the reconnect
// FSM riding over it, Platform-level peer health / quarantine, and a chaos
// run mixing corruption, drops, and resets over thousands of simulated
// seconds. Everything is seeded and deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "collector/platform.hpp"
#include "daemon/daemon.hpp"
#include "daemon/faults.hpp"
#include "mrt/mrt.hpp"
#include "wire/messages.hpp"

namespace gill::collect {
namespace {

using daemon::FaultProfile;
using daemon::FaultyTransport;
using daemon::SessionState;

std::vector<std::uint8_t> bytes_of(const char* text) {
  return std::vector<std::uint8_t>(text, text + std::string(text).size());
}

// ---------------------------------------------------------------------------
// FaultyTransport unit behaviour (each fault in isolation, rate = 1).
// ---------------------------------------------------------------------------

TEST(FaultyTransport, NoFaultsPassesThroughVerbatim) {
  FaultyTransport transport({});
  const auto message = bytes_of("hello");
  transport.write_to_daemon(message);
  EXPECT_EQ(transport.to_daemon.read(), message);
  EXPECT_EQ(transport.fault_stats().delivered, 1u);
  EXPECT_EQ(transport.fault_stats().dropped, 0u);
}

TEST(FaultyTransport, DropRateOneDeliversNothing) {
  FaultProfile profile;
  profile.drop_rate = 1.0;
  FaultyTransport transport(profile);
  for (int i = 0; i < 10; ++i) transport.write_to_daemon(bytes_of("x"));
  EXPECT_TRUE(transport.to_daemon.empty());
  EXPECT_EQ(transport.fault_stats().dropped, 10u);
  EXPECT_EQ(transport.fault_stats().delivered, 0u);
}

TEST(FaultyTransport, DuplicateRateOneDeliversTwice) {
  FaultProfile profile;
  profile.duplicate_rate = 1.0;
  FaultyTransport transport(profile);
  const auto message = bytes_of("abc");
  transport.write_to_daemon(message);
  EXPECT_EQ(transport.to_daemon.size(), 2 * message.size());
  EXPECT_EQ(transport.fault_stats().duplicated, 1u);
}

TEST(FaultyTransport, ReorderSwapsAdjacentMessages) {
  FaultProfile profile;
  profile.reorder_rate = 1.0;
  FaultyTransport transport(profile);
  transport.write_to_daemon(bytes_of("first"));
  // Held back: nothing on the wire yet.
  EXPECT_TRUE(transport.to_daemon.empty());
  EXPECT_EQ(transport.fault_stats().reordered, 1u);
  transport.write_to_daemon(bytes_of("second"));
  EXPECT_EQ(transport.to_daemon.read(), bytes_of("secondfirst"));
}

TEST(FaultyTransport, TruncateShortensTheMessage) {
  FaultProfile profile;
  profile.truncate_rate = 1.0;
  FaultyTransport transport(profile);
  const auto message = bytes_of("a-reasonably-long-message");
  transport.write_to_daemon(message);
  EXPECT_LT(transport.to_daemon.size(), message.size());
  EXPECT_GE(transport.to_daemon.size(), 1u);
  EXPECT_EQ(transport.fault_stats().truncated, 1u);
}

TEST(FaultyTransport, CorruptFlipsBytesButKeepsLength) {
  FaultProfile profile;
  profile.corrupt_rate = 1.0;
  FaultyTransport transport(profile);
  const auto message = bytes_of("a-reasonably-long-message");
  transport.write_to_daemon(message);
  const auto received = transport.to_daemon.read();
  ASSERT_EQ(received.size(), message.size());
  EXPECT_NE(received, message);
  EXPECT_EQ(transport.fault_stats().corrupted, 1u);
}

TEST(FaultyTransport, ResetDisconnectsAndLosesInFlight) {
  FaultProfile profile;
  profile.reset_rate = 1.0;
  FaultyTransport transport(profile);
  const std::uint64_t epoch = transport.epoch();
  transport.write_to_daemon(bytes_of("doomed"));
  EXPECT_FALSE(transport.connected());
  EXPECT_EQ(transport.epoch(), epoch + 1);
  EXPECT_EQ(transport.fault_stats().resets, 1u);
  // Writes into the dead connection are lost, not queued.
  transport.write_to_peer(bytes_of("also-doomed"));
  EXPECT_EQ(transport.fault_stats().lost_disconnected, 1u);
  EXPECT_TRUE(transport.to_daemon.empty());
  EXPECT_TRUE(transport.to_peer.empty());
}

TEST(FaultyTransport, SameSeedSameFaults) {
  FaultProfile profile;
  profile.corrupt_rate = 0.3;
  profile.drop_rate = 0.2;
  profile.duplicate_rate = 0.2;
  profile.seed = 1234;
  FaultyTransport a(profile);
  FaultyTransport b(profile);
  for (int i = 0; i < 200; ++i) {
    const auto message = bytes_of("deterministic-fault-stream");
    a.write_to_daemon(message);
    b.write_to_daemon(message);
  }
  EXPECT_EQ(a.to_daemon.read(), b.to_daemon.read());
  EXPECT_EQ(a.fault_stats().corrupted, b.fault_stats().corrupted);
  EXPECT_EQ(a.fault_stats().dropped, b.fault_stats().dropped);
  EXPECT_EQ(a.fault_stats().duplicated, b.fault_stats().duplicated);
  EXPECT_GT(a.fault_stats().corrupted, 0u);
  EXPECT_GT(a.fault_stats().dropped, 0u);
}

// ---------------------------------------------------------------------------
// A daemon session surviving an injected reset end to end.
// ---------------------------------------------------------------------------

TEST(Resilience, SessionReestablishesAfterInjectedReset) {
  FaultyTransport transport({});  // manual reset below; no random faults
  daemon::MrtStore store;
  daemon::BgpDaemon bgp_daemon(1, 65000, transport, nullptr, &store);
  daemon::RetryPolicy policy;
  policy.jitter = 0.0;
  bgp_daemon.set_retry_policy(policy);
  daemon::FakePeer peer(65010, transport);

  bgp_daemon.start(0);
  peer.poll();
  bgp_daemon.poll(1);
  ASSERT_EQ(bgp_daemon.state(), SessionState::kEstablished);

  transport.disconnect();  // the "network" kills the connection
  bgp_daemon.poll(2);
  EXPECT_EQ(bgp_daemon.state(), SessionState::kIdle);
  for (Timestamp now = 3; now < 10; ++now) {
    bgp_daemon.tick(now);
    peer.poll();
    bgp_daemon.poll(now);
  }
  EXPECT_EQ(bgp_daemon.state(), SessionState::kEstablished);
  EXPECT_TRUE(peer.established());
  EXPECT_EQ(bgp_daemon.stats().reconnects, 1u);
}

// ---------------------------------------------------------------------------
// Platform peer health and quarantine.
// ---------------------------------------------------------------------------

PlatformConfig resilient_config() {
  PlatformConfig config;
  config.retry.jitter = 0.0;
  config.health.flap_threshold = 3;
  config.health.flap_window = 1000;
  return config;
}

TEST(Health, RepeatedFlapsQuarantineThePeer) {
  Platform platform(resilient_config());
  const VpId vp = platform.add_peer(65010, 0);
  platform.step(1);
  ASSERT_EQ(platform.daemon_of(vp).state(), SessionState::kEstablished);
  EXPECT_EQ(platform.health(vp).status, PeerStatus::kHealthy);

  // Kill the session over and over; the third flap in the window triggers
  // the quarantine and the platform stops driving the peer.
  Timestamp now = 1;
  while (platform.health(vp).status != PeerStatus::kQuarantined && now < 500) {
    platform.transport_of(vp).disconnect();
    ++now;
    platform.step(now);  // observes the flap
    for (int i = 0; i < 4; ++i) platform.step(++now);  // reconnect + handshake
  }
  EXPECT_EQ(platform.health(vp).status, PeerStatus::kQuarantined);
  EXPECT_EQ(platform.health(vp).flaps, 3u);
  EXPECT_EQ(platform.health(vp).quarantines, 1u);
  EXPECT_EQ(platform.quarantined_count(), 1u);

  // Quarantined peers are frozen: no reconnects, state stays put.
  const auto state = platform.daemon_of(vp).state();
  for (int i = 0; i < 50; ++i) platform.step(++now);
  EXPECT_EQ(platform.daemon_of(vp).state(), state);

  const HealthSnapshot snapshot = platform.health_snapshot();
  EXPECT_EQ(snapshot.quarantined, 1u);
  ASSERT_EQ(snapshot.peers.size(), 1u);
  EXPECT_EQ(snapshot.peers[0].vp, vp);
  EXPECT_EQ(snapshot.peers[0].status, PeerStatus::kQuarantined);
  EXPECT_EQ(snapshot.peers[0].flaps, 3u);
  const std::string report = format(snapshot);
  EXPECT_NE(report.find("quarantined"), std::string::npos);
  EXPECT_NE(report.find("flaps=3"), std::string::npos);
}

TEST(Health, TimedQuarantineReleasesThePeer) {
  auto config = resilient_config();
  config.health.quarantine_duration = 100;
  Platform platform(config);
  const VpId vp = platform.add_peer(65010, 0);
  Timestamp now = 0;
  platform.step(++now);
  while (platform.health(vp).status != PeerStatus::kQuarantined && now < 500) {
    platform.transport_of(vp).disconnect();
    ++now;
    platform.step(now);
    for (int i = 0; i < 4; ++i) platform.step(++now);
  }
  ASSERT_EQ(platform.health(vp).status, PeerStatus::kQuarantined);

  // After the quarantine window the platform drives the session again and
  // the peer works its way back to Established.
  now += 200;
  for (int i = 0; i < 80; ++i) platform.step(++now);
  EXPECT_EQ(platform.health(vp).status, PeerStatus::kHealthy);
  EXPECT_EQ(platform.daemon_of(vp).state(), SessionState::kEstablished);
}

TEST(Health, QuarantinedPeerDataIsPurgedFromTheMirror) {
  Platform platform(resilient_config());
  const VpId flappy = platform.add_peer(65010, 0);
  const VpId steady = platform.add_peer(65020, 0);
  Timestamp now = 1;
  platform.step(now);
  ASSERT_EQ(platform.daemon_of(flappy).state(), SessionState::kEstablished);

  platform.remote(flappy).send_synthetic_burst(5, 10u << 24);
  platform.remote(steady).send_synthetic_burst(5, 20u << 24);
  platform.step(++now);
  ASSERT_EQ(platform.mirror().size(), 10u);

  while (platform.health(flappy).status != PeerStatus::kQuarantined &&
         now < 500) {
    platform.transport_of(flappy).disconnect();
    ++now;
    platform.step(now);
    for (int i = 0; i < 4; ++i) platform.step(++now);
  }
  ASSERT_EQ(platform.health(flappy).status, PeerStatus::kQuarantined);

  // The refresh drops the quarantined VP's mirrored updates pre-sampling.
  platform.refresh_filters();
  for (const auto& update : platform.mirror()) {
    EXPECT_NE(update.vp, flappy);
  }
}

// ---------------------------------------------------------------------------
// Chaos: 8 peers, 1% corruption + drops + resets, 10k simulated seconds.
// ---------------------------------------------------------------------------

TEST(Chaos, PlatformSurvivesFaultyPeersFor10kSeconds) {
  auto config = resilient_config();
  // Flaps are expected under a 1% reset rate; quarantines must heal so the
  // platform keeps its feeds (and the release path gets exercised).
  config.health.flap_threshold = 6;
  config.health.flap_window = 600;
  config.health.quarantine_duration = 300;
  daemon::MrtStore archive;
  Platform platform(config);
  platform.set_archive(&archive);

  FaultProfile profile;
  profile.corrupt_rate = 0.01;
  profile.drop_rate = 0.01;
  profile.reset_rate = 0.01;
  profile.seed = 2024;

  std::vector<VpId> vps;
  for (int i = 0; i < 8; ++i) {
    vps.push_back(
        platform.add_faulty_peer(static_cast<bgp::AsNumber>(65010 + i), 0,
                                 profile));
  }

  for (Timestamp now = 1; now <= 10000; ++now) {
    for (const VpId vp : vps) {
      auto& remote = platform.remote(vp);
      if (!remote.established()) continue;
      // Keep traffic flowing: a keepalive refreshes the hold timer, and
      // every 13th second each VP announces a fresh prefix.
      if (now % 7 == 0) remote.send_keepalive();
      if (now % 13 == 0) {
        bgp::Update update;
        update.prefix = net::Prefix(
            net::IpAddress::v4((10u << 24) | (vp << 16) |
                               (static_cast<std::uint32_t>(now / 13) & 0xFFFF)),
            32);
        update.path = bgp::AsPath{static_cast<bgp::AsNumber>(65010 + vp)};
        remote.send_update(update);
      }
    }
    platform.step(now);
  }

  // Calm the network down and let every backoff run out (cap is 64 s).
  for (const VpId vp : vps) {
    auto* faulty = dynamic_cast<FaultyTransport*>(&platform.transport_of(vp));
    ASSERT_NE(faulty, nullptr);
    EXPECT_GT(faulty->fault_stats().resets +
                  faulty->fault_stats().corrupted +
                  faulty->fault_stats().dropped,
              0u)
        << "vp " << vp << " saw no faults at all";
    faulty->set_profile(FaultProfile{});
  }
  for (Timestamp now = 10001; now <= 10500; ++now) {
    for (const VpId vp : vps) {
      if (platform.remote(vp).established() && now % 7 == 0) {
        platform.remote(vp).send_keepalive();
      }
    }
    platform.step(now);
  }

  // Every non-quarantined session found its way back to Established.
  std::size_t established = 0;
  for (const VpId vp : vps) {
    if (platform.health(vp).status == PeerStatus::kQuarantined) continue;
    EXPECT_EQ(platform.daemon_of(vp).state(), SessionState::kEstablished)
        << "vp " << vp << "\n"
        << format(platform.health_snapshot());
    ++established;
  }
  EXPECT_GT(established, 0u);

  // The faults really happened and the daemons noticed — asserted through
  // the shared metrics registry, which aggregates across all 8 VPs.
  EXPECT_GT(platform.metrics().counter_total("gill_daemon_reconnects_total"),
            0u);
  EXPECT_GT(
      platform.metrics().counter_total("gill_daemon_decode_errors_total"),
      0u);
  // The per-daemon snapshot view agrees with the registry.
  std::uint64_t total_reconnects = 0;
  for (const VpId vp : vps) {
    total_reconnects += platform.daemon_of(vp).stats().reconnects;
  }
  EXPECT_EQ(total_reconnects,
            platform.metrics().counter_total("gill_daemon_reconnects_total"));

  // The MRT archive survived the chaos: every record decodes back.
  EXPECT_GT(archive.stored(), 0u);
  mrt::Reader reader(archive.writer().buffer());
  std::size_t records = 0;
  while (reader.next()) ++records;
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(records, archive.stored());
}

}  // namespace
}  // namespace gill::collect
