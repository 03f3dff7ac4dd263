// The collector's ingest plane (DESIGN.md §14): the teardown races, decode
// on arrival (no update waits for a tick), admission by live connections,
// BMP feeds on the ingest loop, the archive's single writer, and the merge
// plane as the collector's only filter-refresh schedule (trigger, deferral,
// the job in flight, metrics, and one oracle shared with
// Platform::refresh_filters).
//
// The race tests drive abrupt peer disconnects while the control thread
// harvests the mirror and runs merge refreshes on the analysis pool, and
// archive writes on the ingest thread while the control thread reads the
// manifest and runs retention; under a GILL_SANITIZE=thread build
// (`ctest -L parallel`) TSan turns them into data-race detectors across
// the ingest thread, the pools and the control thread. The flap-storm soak
// is env-scaled by GILL_SOAK_PEERS / GILL_SOAK_ROUNDS and joins
// tools/soak.sh.
//
// Every wait is bounded by a steady-clock deadline (pump_until), not by a
// loop count, so a condition that is never met fails in seconds.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive_writer.hpp"
#include "archive/retention.hpp"
#include "collector/sharded.hpp"
#include "daemon/daemon.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "parallel/thread_pool.hpp"
#include "test_util.hpp"
#include "wire/bmp.hpp"

namespace gill::collect {
namespace {

using test::env_size;
using test::pfx;

constexpr bgp::Timestamp kNow = 7777;
/// Budget of one wait on loopback traffic; generous for sanitizer builds.
constexpr auto kWait = std::chrono::seconds(20);

std::chrono::steady_clock::time_point within(
    std::chrono::steady_clock::duration budget) {
  return std::chrono::steady_clock::now() + budget;
}

/// A fleet of loopback FakePeer clients against one ShardedPlatform, all
/// client ends driven from the test thread (the platform's sessions run on
/// its ingest thread).
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

  /// Pumps the client ends until `done()` or `deadline`; true when done.
  template <typename Done>
  bool pump_until(std::chrono::steady_clock::time_point deadline,
                  Done&& done) {
    while (!done()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      pump();
    }
    return true;
  }

  /// Dials one more peer without waiting for the session.
  daemon::FakePeer* dial(ShardedPlatform& platform, bgp::AsNumber as) {
    auto transport = std::make_unique<net::TcpTransport>(
        loop, net::Role::kPeerSide, &registry);
    if (!transport->dial("127.0.0.1", platform.port())) return nullptr;
    peers.push_back(std::make_unique<daemon::FakePeer>(as, *transport));
    transports.push_back(std::move(transport));
    return peers.back().get();
  }

  /// Connects one more peer and waits until BOTH ends consider the
  /// session up. Serial connects assign VP ids in connect order.
  bool connect(ShardedPlatform& platform, bgp::AsNumber as) {
    // peer_count() is monotonic (dead sessions stay registered), so wait
    // for it to grow by one rather than match the live-client count.
    const std::size_t want = platform.peer_count() + 1;
    daemon::FakePeer* peer = dial(platform, as);
    return peer != nullptr && pump_until(within(kWait), [&] {
             return peer->established() && platform.peer_count() >= want;
           });
  }

  /// Pumps until the platform has stored `want` updates; true when it has.
  bool await_stored(const ShardedPlatform& platform, std::size_t want) {
    return pump_until(within(kWait),
                      [&] { return platform.stored_updates() >= want; });
  }

  /// FIN from the client side: the collector sees an abrupt disconnect.
  void drop(std::size_t index) {
    peers[index].reset();
    transports[index].reset();
  }
};

TEST(Sharded, DisconnectDuringMergeIsSafe) {
  const std::size_t peer_count = 8;

  metrics::Registry registry;
  par::ThreadPool pool(2);  // merge jobs race the ingest thread
  ShardedPlatformConfig config;
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
  ASSERT_TRUE(fleet.await_stored(platform, peer_count * 50));

  // Kick off an async merge over the harvested mirror, then yank half the
  // sessions mid-flight while the control plane keeps harvesting.
  platform.refresh_filters(kNow);
  for (std::size_t i = 0; i < peer_count; i += 2) {
    fleet.drop(i);
    platform.control_tick(kNow);
    (void)platform.health_snapshot();
    (void)platform.with_platform(
        [](Platform& ingest) { return ingest.harvest(); });
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
  fleet.await_stored(platform, before + (peer_count / 2) * 10);
  EXPECT_EQ(platform.stored_updates(), before + (peer_count / 2) * 10);
  platform.stop();
}

TEST(Sharded, FlapStormSoak) {
  const std::size_t peer_count = env_size("GILL_SOAK_PEERS", 16);
  const std::size_t rounds = env_size("GILL_SOAK_ROUNDS", 2);

  metrics::Registry registry;
  par::ThreadPool pool(2);
  ShardedPlatformConfig config;
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
    fleet.pump_until(within(kWait), [&] { return accounted() >= sent; });
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

/// Counts the updates sessions keep (the archive tee, on the ingest thread).
class CountingSink : public mrt::Sink {
 public:
  void store(const bgp::Update&) override { updates_.fetch_add(1); }
  void store_rib_entry(const bgp::Update&) override {}
  std::size_t updates() const { return updates_.load(); }

 private:
  std::atomic<std::size_t> updates_{0};
};

bgp::Update probe_update() {
  bgp::Update update;
  update.prefix = net::Prefix::parse("10.9.0.0/24").value();
  update.path = bgp::AsPath{65001, 65020};
  return update;
}

/// The ingest platform's mirror (the next window).
std::size_t mirrored(ShardedPlatform& platform) {
  return platform.with_platform(
      [](Platform& ingest) { return ingest.mirror().size(); });
}

TEST(DecodeOnArrival, DeliveryWaitsForNoTick) {
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.clock = [] { return kNow; };
  CountingSink archive;               // outlives the ingest thread
  std::vector<bgp::Update> streamed;  // filled by drain_stream(), here
  ShardedPlatform platform(config);
  platform.set_archive(&archive);
  platform.set_stream_publisher(
      [&streamed](std::span<const bgp::Update> batch) {
        streamed.insert(streamed.end(), batch.begin(), batch.end());
      });
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/60'000);  // no ingest tick fires in this test

  const auto deadline = within(std::chrono::seconds(1));
  ClientFleet client;
  daemon::FakePeer* peer = client.dial(platform, 65001);
  ASSERT_NE(peer, nullptr);
  // The collector's KEEPALIVE answers the peer's OPEN: it was decoded on
  // arrival, not at a tick.
  ASSERT_TRUE(client.pump_until(deadline, [&] { return peer->established(); }))
      << "the peer's OPEN was not answered within 1 s";

  const bgp::Update update = probe_update();
  peer->send_update(update);
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

  const auto deadline = within(std::chrono::seconds(5));
  ClientFleet client;
  daemon::FakePeer* peer = client.dial(platform, 65001);
  ASSERT_NE(peer, nullptr);
  ASSERT_TRUE(client.pump_until(deadline, [&] { return peer->established(); }));

  // Memory spikes: the platform's next step reads the probe and sheds the
  // only session.
  memory = 2000;
  platform.with_platform([](Platform& ingest) { ingest.step(kNow); });
  ASSERT_EQ(platform.health_snapshot().shed, 1u);

  peer->send_update(probe_update());
  const auto queued = [&] {
    return platform.with_platform([](Platform& ingest) {
      return ingest.transport_of(0).to_daemon.size();
    });
  };
  // The bytes reach the session's queue, and the readable event that
  // queued them decoded nothing.
  ASSERT_TRUE(client.pump_until(deadline, [&] { return queued() > 0; }));
  EXPECT_EQ(platform.with_platform([](Platform& ingest) {
              return ingest.daemon_of(0).stats().updates_received;
            }),
            0u);
  EXPECT_EQ(archive.updates(), 0u);
  platform.stop();
}

// ---------------------------------------------------------------------------
// Admission counts live connections, not every session ever accepted.
// ---------------------------------------------------------------------------

TEST(Admission, PeerCapCountsLiveConnections) {
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.max_peers = 2;
  config.clock = [] { return kNow; };
  ShardedPlatform platform(config);
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);

  // Four sessions one after another, each closed before the next: never
  // more than one is open, so the cap of two refuses none of them.
  const auto collector_closed = [&] {
    return registry.counter_total("gill_net_remote_closes_total") +
           registry.counter_total("gill_net_socket_errors_total");
  };
  ClientFleet fleet;
  for (std::size_t round = 0; round < 4; ++round) {
    ASSERT_TRUE(
        fleet.connect(platform, static_cast<bgp::AsNumber>(65001 + round)))
        << "session " << round + 1 << " was refused";
    fleet.drop(round);
    ASSERT_TRUE(fleet.pump_until(
        within(kWait), [&] { return collector_closed() >= round + 1; }))
        << "the collector never saw session " << round + 1 << " close";
  }
  EXPECT_EQ(platform.peer_count(), 4u) << "dead sessions stay registered";
  platform.stop();
}

// ---------------------------------------------------------------------------
// BMP feeds (RFC 7854) join the ingest loop: admitted, decoded on arrival
// through the installed filter table, archived and streamed there.
// ---------------------------------------------------------------------------

/// A loopback connection to `port`; -1 when it cannot connect.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::span<const std::uint8_t> bytes) {
  return fd >= 0 && ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
                        static_cast<ssize_t>(bytes.size());
}

/// Connects to `port`, sends `bytes` and closes: the FIN follows the data.
bool send_and_close(std::uint16_t port, std::span<const std::uint8_t> bytes) {
  const int fd = connect_to(port);
  const bool sent = send_all(fd, bytes);
  if (fd >= 0) ::close(fd);
  return sent;
}

/// One BMP Route Monitoring message announcing `update`'s prefix and path,
/// as received from the monitored peer `peer` (address, AS).
std::vector<std::uint8_t> route_monitoring(const bgp::Update& update,
                                           const char* peer = "192.0.2.9",
                                           bgp::AsNumber peer_as = 65010) {
  wire::BmpRouteMonitoring monitoring;
  monitoring.peer.address = net::IpAddress::parse(peer).value();
  monitoring.peer.as = peer_as;
  monitoring.update.nlri = {update.prefix};
  monitoring.update.path = update.path;
  monitoring.update.next_hop = 1;
  return wire::encode_bmp(monitoring);
}

bgp::Update bmp_probe() {
  bgp::Update update;
  update.prefix = pfx("10.77.0.0/24");
  update.path = bgp::AsPath{65010, 64500};
  return update;
}

TEST(BmpFeed, DecodedFilteredArchivedAndStreamedOnTheIngestLoop) {
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.clock = [] { return kNow; };
  CountingSink archive;               // outlives the ingest thread
  std::vector<bgp::Update> streamed;  // filled by drain_stream(), here
  ShardedPlatform platform(config);
  platform.set_archive(&archive);
  platform.set_stream_publisher(
      [&streamed](std::span<const bgp::Update> batch) {
        streamed.insert(streamed.end(), batch.begin(), batch.end());
      });
  ASSERT_TRUE(platform.listen_bmp("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);

  const std::vector<std::uint8_t> message = route_monitoring(bmp_probe());
  ClientFleet client;  // its loop only paces the waits
  const auto drained = [&](std::size_t archived, std::size_t published) {
    return client.pump_until(within(kWait), [&] {
      platform.drain_stream();
      return archive.updates() == archived && streamed.size() == published;
    });
  };

  // One Route Monitoring message, then the FIN: decoded, archived, and
  // handed to the publisher by drain_stream().
  ASSERT_TRUE(send_and_close(platform.bmp_port(), message));
  ASSERT_TRUE(drained(1, 1)) << archive.updates() << " archived, "
                             << streamed.size() << " streamed";
  EXPECT_EQ(streamed[0].vp, Platform::kFirstBmpVp);
  EXPECT_EQ(streamed[0].time, kNow);
  EXPECT_EQ(streamed[0].prefix, pfx("10.77.0.0/24"));
  EXPECT_EQ(streamed[0].path, (bgp::AsPath{65010, 64500}));
  EXPECT_EQ(mirrored(platform), 1u) << "BMP updates enter the sampling mirror";
  EXPECT_EQ(registry.counter_total("gill_collector_mirrored_updates_total"),
            1u);

  // The next feed is labelled kFirstBmpVp + 1. A table that drops that
  // (vp, prefix), installed in the one place filters live, filters its
  // message: counted, still streamed (the tap is pre-filter), not archived.
  filt::FilterTable drop;
  drop.add_drop(Platform::kFirstBmpVp + 1, pfx("10.77.0.0/24"));
  platform.with_platform([&drop](Platform& ingest) {
    ingest.install_filters(std::move(drop), {});
  });
  ASSERT_TRUE(send_and_close(platform.bmp_port(), message));
  ASSERT_TRUE(client.pump_until(within(kWait), [&] {
    platform.drain_stream();
    return registry.counter_total("gill_bmp_updates_filtered_total") == 1 &&
           streamed.size() == 2;
  }));
  EXPECT_EQ(streamed[1].vp, Platform::kFirstBmpVp + 1);
  EXPECT_EQ(archive.updates(), 1u);
  EXPECT_EQ(registry.counter_total("gill_bmp_updates_stored_total"), 1u);
  platform.stop();
}

// The Platform owns the feeds, so a sink attached after listen_bmp() reaches
// a feed that is already open, and stored_updates() counts what feeds keep,
// the closed ones included.
TEST(BmpFeed, LateArchiveReachesAnOpenFeedAndFeedsCountAsStored) {
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.clock = [] { return kNow; };
  CountingSink archive;  // outlives the ingest thread; attached later
  ShardedPlatform platform(config);
  ASSERT_TRUE(platform.listen_bmp("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);

  const std::vector<std::uint8_t> message = route_monitoring(bmp_probe());
  ClientFleet client;  // its loop only paces the waits
  const int fd = connect_to(platform.bmp_port());
  ASSERT_TRUE(send_all(fd, message));
  ASSERT_TRUE(client.pump_until(within(kWait), [&] {
    return registry.counter_total("gill_bmp_updates_stored_total") == 1;
  }));
  EXPECT_EQ(archive.updates(), 0u) << "no sink attached yet";

  platform.set_archive(&archive);
  ASSERT_TRUE(send_all(fd, message));
  ASSERT_TRUE(client.pump_until(within(kWait),
                                [&] { return archive.updates() == 1; }))
      << "the open feed kept the sink it was accepted with";
  EXPECT_EQ(platform.stored_updates(), 2u);

  // The close drops the feed at the next tick; what it kept still counts.
  ::close(fd);
  const auto connections = [&] {
    return platform.with_platform(
        [](Platform& ingest) { return ingest.connection_count(); });
  };
  ASSERT_TRUE(client.pump_until(within(kWait),
                                [&] { return connections() == 0; }));
  EXPECT_EQ(platform.stored_updates(), 2u);
  EXPECT_EQ(platform.peer_count(), 0u) << "BMP feeds are not peers";
  platform.stop();
}

// ---------------------------------------------------------------------------
// The archive's write side has one owner, the ingest thread.
// ---------------------------------------------------------------------------

// Sessions write a real SegmentWriter (one I/O worker, as gill-collectord
// configures it) on the ingest thread, whose tick also rotates it, while
// this thread does what gill-collectord's control loop does with the
// writer: read the manifest generation and run retention. No lock wraps
// the writer; under TSan (`parallel`) this is the race detector for that.
TEST(IngestOwner, ArchiveWritesRaceManifestReadsAndRetention) {
  namespace fs = std::filesystem;
  const std::size_t rounds = 2 + 2 * env_size("GILL_SOAK_ROUNDS", 2);
  const fs::path directory =
      fs::path(::testing::TempDir()) / "sharded_archive_owner";
  fs::remove_all(directory);

  metrics::Registry registry;
  par::ThreadPool io(1, &registry);
  archive::SegmentWriterConfig writer_config;
  writer_config.directory = directory.string();
  writer_config.rotate_secs = 1;
  writer_config.pool = &io;
  writer_config.registry = &registry;
  archive::SegmentWriter writer(writer_config);
  ASSERT_TRUE(writer.open());

  // Each round's updates carry their own second, so each round fills one
  // window and the ingest tick seals it once the clock moves on.
  std::atomic<bgp::Timestamp> clock{kNow};
  ShardedPlatformConfig config;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  config.clock = [&clock] { return clock.load(); };
  ShardedPlatform platform(config);
  platform.set_archive(&writer);
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);
  ClientFleet fleet;
  ASSERT_TRUE(fleet.connect(platform, 65001));
  ASSERT_TRUE(fleet.connect(platform, 65002));

  archive::RetentionPolicy retention;
  retention.max_age_secs = 2;
  std::uint64_t seen_generation = writer.manifest_generation();
  std::size_t manifest_changes = 0;
  std::size_t sent = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < fleet.peers.size(); ++i) {
      fleet.peers[i]->send_synthetic_burst(
          25, (10u << 24) | (static_cast<std::uint32_t>(i) << 16) |
                  (static_cast<std::uint32_t>(round & 0xff) << 8));
      sent += 25;
    }
    ASSERT_TRUE(fleet.pump_until(within(kWait), [&] {
      const std::uint64_t generation = writer.manifest_generation();
      if (generation != seen_generation) {
        seen_generation = generation;
        ++manifest_changes;
      }
      writer.run_retention(retention, nullptr, clock.load());
      return platform.stored_updates() >= sent;
    })) << "round " << round;
    ++clock;
  }
  platform.stop();
  writer.close();  // seals the last window; the ingest thread is joined

  EXPECT_EQ(platform.stored_updates(), sent);
  EXPECT_EQ(writer.segments_sealed(), rounds);
  EXPECT_GT(manifest_changes, 0u) << "no seal or GC seen from this thread";
  // Every sealed window is either still listed or was deleted by age.
  writer.run_retention(retention, nullptr, clock.load());
  writer.wait_idle();
  EXPECT_EQ(writer.manifest().size() +
                registry.counter_total("gill_archive_gc_deleted_segments_total"),
            rounds);
  EXPECT_GT(registry.counter_total("gill_archive_gc_deleted_segments_total"),
            0u);
  fs::remove_all(directory);
}

// ---------------------------------------------------------------------------
// The merge plane: the collector's only filter-refresh schedule.
// ---------------------------------------------------------------------------

constexpr bgp::Timestamp kRefreshAt = 10'000;

/// The ingest platform of a collector that is never start()ed: every
/// with_platform() call runs inline on the test thread, so in-process
/// sessions and their timestamps are deterministic.
Platform& ingest_platform(ShardedPlatform& collector) {
  return *collector.with_platform([](Platform& platform) { return &platform; });
}

/// In-process sessions (FakePeer remotes over the in-memory transport) on
/// one Platform.
class InMemorySessions {
 public:
  explicit InMemorySessions(Platform& platform) : platform_(&platform) {}

  /// Adds `count` peers (VP ids 0..count-1 in order) and establishes them.
  void add_peers(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      vps_.push_back(
          platform_->add_peer(static_cast<bgp::AsNumber>(65010 + i), 0));
    }
    step(1);
  }

  void step(bgp::Timestamp now) { platform_->step(now); }

  /// Redundant traffic: every VP announces the same correlated churn on
  /// two prefixes, six rounds `spacing` seconds apart from `base`.
  void feed_window(bgp::Timestamp base, bgp::Timestamp spacing) {
    for (int round = 0; round < 6; ++round) {
      for (const char* prefix : {"10.0.0.0/24", "10.0.1.0/24"}) {
        bgp::Update update;
        update.prefix = net::Prefix::parse(prefix).value();
        update.path = round % 2 == 0 ? bgp::AsPath{65010, 65020}
                                     : bgp::AsPath{65010, 65021, 65020};
        for (const VpId vp : vps_) platform_->remote(vp).send_update(update);
        step(static_cast<bgp::Timestamp>(base + round * spacing));
      }
    }
  }

 private:
  Platform* platform_;
  std::vector<VpId> vps_;
};

/// In-memory BMP feeds on one Platform: each monitored router writes Route
/// Monitoring messages into its feed's transport, and Platform::step()
/// decodes them.
class InMemoryBmpFeeds {
 public:
  explicit InMemoryBmpFeeds(Platform& platform) : platform_(&platform) {}

  /// Opens `count` feeds (labels kFirstBmpVp.. in order).
  void add_feeds(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      auto transport = std::make_unique<daemon::Transport>();
      routers_.push_back(transport.get());
      vps_.push_back(platform_->add_bmp_feed(0, std::move(transport)));
    }
  }

  const std::vector<VpId>& vps() const noexcept { return vps_; }

  /// Feed `index` monitors one announcement of `update` by `peer`.
  void send(std::size_t index, const bgp::Update& update,
            const char* peer = "192.0.2.9", bgp::AsNumber peer_as = 65010) {
    routers_.at(index)->write_to_daemon(
        route_monitoring(update, peer, peer_as));
  }

  /// The correlated churn of InMemorySessions::feed_window, on every feed.
  void feed_window(bgp::Timestamp base, bgp::Timestamp spacing) {
    for (int round = 0; round < 6; ++round) {
      for (const char* prefix : {"10.0.0.0/24", "10.0.1.0/24"}) {
        bgp::Update update;
        update.prefix = net::Prefix::parse(prefix).value();
        update.path = round % 2 == 0 ? bgp::AsPath{65010, 65020}
                                     : bgp::AsPath{65010, 65021, 65020};
        for (std::size_t i = 0; i < vps_.size(); ++i) send(i, update);
        platform_->step(static_cast<bgp::Timestamp>(base + round * spacing));
      }
    }
  }

 private:
  Platform* platform_;
  std::vector<daemon::Transport*> routers_;
  std::vector<VpId> vps_;
};

// A BMP feed is one more vantage point (§14): its updates reach the
// sampling mirror, so a refresh over a window of correlated BMP churn
// learns drop rules for BMP VPs, and the feed's next matching message is
// filtered and not archived.
TEST(BmpFeed, RefreshLearnsDropRulesForBmpVps) {
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.platform.registry = &registry;
  config.component1_refresh = 0;
  ShardedPlatform platform(config);
  daemon::MrtStore archive;
  platform.set_archive(&archive);
  InMemoryBmpFeeds feeds(ingest_platform(platform));
  feeds.add_feeds(4);
  feeds.feed_window(2, 1000);
  ASSERT_EQ(mirrored(platform), 4u * 12u);

  platform.refresh_filters(kRefreshAt);
  ASSERT_EQ(platform.filter_generation(), 1u);
  EXPECT_EQ(registry.counter_total("gill_sharded_merged_updates_total"),
            4u * 12u);

  // Find a BMP (vp, prefix) the installed table drops.
  std::optional<std::size_t> dropped_feed;
  bgp::Update probe;
  platform.with_platform([&](Platform& ingest) {
    for (std::size_t i = 0; i < feeds.vps().size() && !dropped_feed; ++i) {
      for (const char* prefix : {"10.0.0.0/24", "10.0.1.0/24"}) {
        probe.vp = feeds.vps()[i];
        probe.prefix = pfx(prefix);
        probe.path = bgp::AsPath{65010, 65020};
        if (!ingest.filters().accept(probe)) {
          dropped_feed = i;
          break;
        }
      }
    }
  });
  ASSERT_TRUE(dropped_feed.has_value()) << "no drop rule for a BMP VP";
  EXPECT_GE(probe.vp, Platform::kFirstBmpVp);

  const std::size_t archived = archive.stored();
  const metrics::Labels labels{{"vp", std::to_string(probe.vp)}};
  const auto filtered = [&] {
    return registry.counter("gill_bmp_updates_filtered_total", "", labels)
        .value();
  };
  ASSERT_EQ(filtered(), 0u);
  feeds.send(*dropped_feed, probe);
  ingest_platform(platform).step(kRefreshAt + 1);
  EXPECT_EQ(filtered(), 1u);
  EXPECT_EQ(archive.stored(), archived) << "a dropped update is not archived";
}

/// Keeps every update it is handed (single-threaded use).
class KeepingSink : public mrt::Sink {
 public:
  void store(const bgp::Update& update) override { updates.push_back(update); }
  void store_rib_entry(const bgp::Update&) override {}

  std::vector<bgp::Update> updates;
};

// A feed carries Route Monitoring for every peer of the monitored router
// (RFC 7854). Each monitored peer is a vantage point of its own, so two
// peers announcing one prefix with different paths are not one VP's churn,
// and a (vp, prefix) drop rule reaches one peer's updates only.
TEST(BmpFeed, EachMonitoredPeerIsItsOwnVantagePoint) {
  metrics::Registry registry;
  PlatformConfig config;
  config.registry = &registry;
  Platform platform(config);
  KeepingSink archive;
  platform.set_archive(&archive);
  InMemoryBmpFeeds feeds(platform);
  feeds.add_feeds(1);
  const VpId feed = feeds.vps()[0];
  ASSERT_EQ(feed, Platform::kFirstBmpVp);

  bgp::Update first = bmp_probe();
  first.path = bgp::AsPath{65010, 64500};
  bgp::Update second = bmp_probe();
  second.path = bgp::AsPath{65011, 64501};
  const auto round = [&](bgp::Timestamp now) {
    feeds.send(0, first, "192.0.2.9", 65010);
    feeds.send(0, second, "192.0.2.10", 65011);
    platform.step(now);
  };
  const auto& mirror = platform.mirror().updates();
  round(1);
  ASSERT_EQ(mirror.size(), 2u);
  EXPECT_EQ(mirror[0].vp, feed);
  EXPECT_EQ(mirror[0].path, first.path);
  EXPECT_EQ(mirror[1].vp, feed + 1) << "the second peer's label";
  EXPECT_EQ(mirror[1].path, second.path);

  // The next feed takes the next free BMP label; the first feed's peers
  // keep theirs.
  feeds.add_feeds(1);
  EXPECT_EQ(feeds.vps()[1], feed + 2);
  round(2);
  ASSERT_EQ(mirror.size(), 4u);
  EXPECT_EQ(mirror[2].vp, feed);
  EXPECT_EQ(mirror[3].vp, feed + 1);

  // A rule dropping the first peer's (vp, prefix) keeps the second's.
  filt::FilterTable drop;
  drop.add_drop(feed, first.prefix);
  platform.install_filters(std::move(drop), {});
  archive.updates.clear();
  round(3);
  EXPECT_EQ(registry.counter_total("gill_bmp_updates_filtered_total"), 1u);
  ASSERT_EQ(archive.updates.size(), 1u);
  EXPECT_EQ(archive.updates[0].vp, feed + 1);
  EXPECT_EQ(archive.updates[0].path, second.path);
  // The stream's counters stay per feed.
  EXPECT_EQ(registry
                .counter("gill_bmp_updates_received_total", "",
                         {{"vp", std::to_string(feed)}})
                .value(),
            6u);
}

// The identity spec for every refresh path: one in-memory Platform refreshed
// synchronously, and the merge plane refreshing inline and on a 2-worker
// pool, all install byte-identical published documents. Each merge-plane
// refresh is recorded once: one refresh counted, one duration observed.
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
  for (par::ThreadPool* executor :
       {static_cast<par::ThreadPool*>(nullptr), &pool}) {
    const std::string run = executor != nullptr ? "pool" : "inline";
    metrics::Registry registry;
    ShardedPlatformConfig config;
    config.platform.registry = &registry;
    config.component1_refresh = 0;
    config.analysis_pool = executor;
    ShardedPlatform platform(config);
    InMemorySessions sessions(ingest_platform(platform));
    sessions.add_peers(kPeers);
    sessions.feed_window(2, 1000);

    platform.refresh_filters(kRefreshAt);
    if (executor == nullptr) {
      EXPECT_FALSE(platform.refresh_in_flight())
          << "no pool runs the refresh on the control thread";
    }
    platform.wait_for_refresh();
    ASSERT_EQ(platform.filter_generation(), 1u) << run;
    platform.with_platform([&](Platform& installed) {
      EXPECT_EQ(installed.filter_generation(), 1u) << run;
      EXPECT_EQ(installed.published_filter_document(), filter_doc) << run;
      EXPECT_EQ(installed.published_anchor_document(), anchor_doc) << run;
    });
    EXPECT_EQ(registry.counter_total("gill_collector_filter_refreshes_total"),
              1u)
        << run;
    EXPECT_EQ(registry
                  .histogram("gill_collector_filter_refresh_duration_us", "")
                  .count(),
              1u)
        << run;
  }
}

TEST(MergePlane, SessionsKeepFlowingWhileARefreshIsInFlight) {
  metrics::Registry registry;
  par::ThreadPool pool(1);
  ShardedPlatformConfig config;
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
    // Counted before sending: the ingest loop decodes on arrival, so a
    // count taken after the sends may already include some of them.
    const std::size_t want = platform.stored_updates() + 2 * per_peer;
    for (std::size_t i = 0; i < fleet.peers.size(); ++i) {
      fleet.peers[i]->send_synthetic_burst(
          per_peer, base | (static_cast<std::uint32_t>(i) << 16));
    }
    fleet.await_stored(platform, want);
    ASSERT_EQ(platform.stored_updates(), want);
  };
  send_window(10, 10u << 24);

  // Block the pool's only worker: the refresh job stays queued behind it.
  std::promise<void> release;
  pool.post([gate = release.get_future().share()] { gate.wait(); });
  platform.refresh_filters(kNow);
  ASSERT_TRUE(platform.refresh_in_flight());
  EXPECT_EQ(platform.filter_generation(), 0u) << "nothing installed yet";

  // The ingest loop keeps serving sessions: a second window reaches the
  // RIBs, the stored-update counts and the mirror while the job waits.
  send_window(15, 11u << 24);
  EXPECT_EQ(platform.with_platform([](Platform& ingest) {
              std::size_t routes = 0;
              for (const auto& peer : ingest.health_snapshot().peers) {
                routes += ingest.daemon_of(peer.vp).rib().size();
              }
              return routes;
            }),
            50u);
  EXPECT_EQ(mirrored(platform), 30u) << "the next window accumulates";
  // A second refresh while one is in flight is a no-op: it neither
  // harvests the next window nor replaces the running job.
  platform.refresh_filters(kNow);
  platform.control_tick(kNow);
  EXPECT_TRUE(platform.refresh_in_flight());
  EXPECT_EQ(mirrored(platform), 30u);

  release.set_value();
  platform.wait_for_refresh();
  EXPECT_FALSE(platform.refresh_in_flight());
  EXPECT_EQ(platform.filter_generation(), 1u);
  EXPECT_EQ(registry.counter_total("gill_collector_filter_refreshes_total"),
            1u);
  EXPECT_EQ(mirrored(platform), 30u)
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
  config.platform.registry = &registry;
  // Seconds-scale period: every step stays inside the 90 s hold timer.
  config.component1_refresh = 100;
  config.analysis_pool = &pool;
  ShardedPlatform platform(config);
  InMemorySessions sessions(ingest_platform(platform));
  sessions.add_peers(2);
  // Control ticks at `now` until one of them installs the submitted job.
  const auto tick_until_installed = [&](bgp::Timestamp now) {
    const std::uint64_t want = platform.filter_generation() + 1;
    const auto deadline = within(kWait);
    while (platform.filter_generation() < want &&
           std::chrono::steady_clock::now() < deadline) {
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
  EXPECT_EQ(mirrored(platform), 0u) << "the window was harvested";
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
  config.platform.registry = &registry;
  config.platform.overload.mem_high_watermark = 1000;
  config.platform.overload.mem_low_watermark = 500;
  config.platform.overload.memory_probe = [&memory] { return memory; };
  config.component1_refresh = 100;
  ShardedPlatform platform(config);
  InMemorySessions sessions(ingest_platform(platform));
  sessions.add_peers(2);
  platform.control_tick(1);
  sessions.feed_window(2, 10);

  // Memory spikes: the platform's next step reads the probe.
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
  EXPECT_GT(platform.with_platform([](Platform& ingest) {
              return ingest.filters().drop_rule_count();
            }),
            0u);
}

// A BMP feed cannot be shed, so while the platform is degraded its updates
// skip the mirror: with only feeds open (nothing to shed) the mirror stays
// flat until memory recovers, the feed is still archived and streamed, and
// the held refresh runs once the probe drops.
TEST(MergePlane, DegradedBmpFeedLeavesTheMirrorFlatUntilRecovery) {
  std::size_t memory = 100;
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.platform.registry = &registry;
  config.platform.overload.mem_high_watermark = 1000;
  config.platform.overload.mem_low_watermark = 500;
  config.platform.overload.memory_probe = [&memory] { return memory; };
  config.component1_refresh = 100;
  ShardedPlatform platform(config);
  CountingSink archive;
  platform.set_archive(&archive);
  std::size_t streamed = 0;
  platform.set_stream_publisher(
      [&streamed](std::span<const bgp::Update> batch) {
        streamed += batch.size();
      });
  InMemoryBmpFeeds feeds(ingest_platform(platform));
  feeds.add_feeds(1);
  platform.control_tick(1);
  feeds.feed_window(2, 10);
  ASSERT_EQ(mirrored(platform), 12u);

  memory = 2000;
  feeds.feed_window(60, 5);
  ASSERT_TRUE(platform.degraded());
  platform.drain_stream();
  EXPECT_EQ(mirrored(platform), 12u) << "a degraded feed grew the mirror";
  EXPECT_EQ(registry.counter_total("gill_collector_mirrored_updates_total"),
            12u);
  EXPECT_EQ(archive.updates(), 24u);
  EXPECT_EQ(streamed, 24u);
  EXPECT_EQ(registry.counter_total("gill_overload_sheds_total"), 0u);

  platform.control_tick(101);
  EXPECT_EQ(platform.filter_generation(), 0u);
  EXPECT_EQ(
      registry.counter_total("gill_overload_refreshes_deferred_total"), 1u);

  memory = 100;
  ingest_platform(platform).step(130);
  ASSERT_FALSE(platform.degraded());
  platform.control_tick(131);
  EXPECT_EQ(platform.filter_generation(), 1u);
  EXPECT_EQ(registry.counter_total("gill_sharded_merged_updates_total"), 12u);
  EXPECT_EQ(mirrored(platform), 0u);
}

}  // namespace
}  // namespace gill::collect
