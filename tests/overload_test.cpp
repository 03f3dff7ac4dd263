// Overload control (DESIGN.md §11): the token bucket and accept governor
// in isolation, TcpTransport's watermark backpressure over a real loopback
// socket (EPOLLIN disarmed -> kernel window closes -> bounded queue), and
// the Platform's memory-watermark degraded mode (shed the lowest-volume
// VPs, re-admit on recovery). The merge plane's refresh deferral is tested
// in sharded_test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <vector>

#include "collector/platform.hpp"
#include "net/event_loop.hpp"
#include "net/overload.hpp"
#include "net/tcp_transport.hpp"
#include "test_util.hpp"

namespace gill::net {
namespace {

using test::raw_client;

// ---------------------------------------------------------------------------
// TokenBucket.
// ---------------------------------------------------------------------------

TEST(TokenBucket, ZeroRateIsUnlimited) {
  TokenBucket bucket(0, 0);
  EXPECT_TRUE(bucket.unlimited());
  EXPECT_TRUE(bucket.spend(1e9, 0));
  EXPECT_TRUE(bucket.try_take(1e9, 0));
  EXPECT_FALSE(bucket.in_debt(0));
}

TEST(TokenBucket, TryTakeRefusesBeyondBurst) {
  TokenBucket bucket(/*rate=*/100, /*burst=*/10);
  EXPECT_TRUE(bucket.try_take(10, 1000));  // the full burst
  EXPECT_FALSE(bucket.try_take(1, 1000));  // empty now
  // 50 ms at 100/s refills 5 tokens.
  EXPECT_TRUE(bucket.try_take(5, 1050));
  EXPECT_FALSE(bucket.try_take(1, 1050));
}

TEST(TokenBucket, SpendRunsIntoDebtAndRefillsOut) {
  TokenBucket bucket(/*rate=*/1000, /*burst=*/100);
  // Bytes already read must be charged even when they overdraw.
  EXPECT_FALSE(bucket.spend(500, 1000));  // 100 - 500 = -400: stop reading
  EXPECT_TRUE(bucket.in_debt(1000));
  EXPECT_TRUE(bucket.in_debt(1300));   // -400 + 300 = -100
  EXPECT_FALSE(bucket.in_debt(1500));  // -400 + 500 = +100
  EXPECT_TRUE(bucket.spend(50, 1500));
}

TEST(TokenBucket, RefillCapsAtBurst) {
  TokenBucket bucket(/*rate=*/1000, /*burst=*/100);
  EXPECT_FALSE(bucket.spend(150, 0));  // overdrawn straight into debt
  EXPECT_TRUE(bucket.in_debt(0));
  EXPECT_TRUE(bucket.full(100000));  // a long idle: capped, not unbounded
  EXPECT_LE(bucket.tokens(), 100.0);
}

TEST(TokenBucket, BurstDefaultsToOneSecondOfRate) {
  TokenBucket bucket(/*rate=*/64, /*burst=*/0);
  EXPECT_TRUE(bucket.try_take(64, 0));
  EXPECT_FALSE(bucket.try_take(1, 0));
}

// ---------------------------------------------------------------------------
// AcceptGovernor.
// ---------------------------------------------------------------------------

TEST(AcceptGovernor, PerSourceRateCapWithCounters) {
  metrics::Registry registry;
  AcceptGovernor governor(/*rate=*/2, /*burst=*/4, &registry);
  // The burst admits 4, then the source is refused...
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(governor.admit("10.0.0.1", 1000));
  EXPECT_FALSE(governor.admit("10.0.0.1", 1000));
  // ...while an unrelated source is untouched (per-source buckets).
  EXPECT_TRUE(governor.admit("10.0.0.2", 1000));
  // At 2/s the storm re-admits one connection per 500 ms.
  EXPECT_TRUE(governor.admit("10.0.0.1", 1500));
  EXPECT_FALSE(governor.admit("10.0.0.1", 1500));
  EXPECT_EQ(registry.counter_total("gill_overload_accepts_admitted_total"),
            6u);
  EXPECT_EQ(registry.counter_total("gill_overload_accepts_rejected_total"),
            2u);
  EXPECT_EQ(governor.tracked_sources(), 2u);
}

TEST(AcceptGovernor, ZeroRateAdmitsEverything) {
  metrics::Registry registry;
  AcceptGovernor governor(0, 0, &registry);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(governor.admit("10.0.0.1", 0));
  EXPECT_EQ(governor.tracked_sources(), 0u);  // no bookkeeping either
}

// ---------------------------------------------------------------------------
// TcpTransport watermark backpressure over a real loopback socket.
// ---------------------------------------------------------------------------

/// A loopback byte firehose into a daemon-side transport with ingest
/// limits: no BGP machinery, just raw flow control.
struct FirehoseHarness {
  EventLoop loop;
  metrics::Registry registry;
  TcpListener listener{loop, &registry};
  std::unique_ptr<TcpTransport> server;
  int client_fd = -1;

  explicit FirehoseHarness(const IngestLimits& limits) {
    EXPECT_TRUE(listener.listen(
        "127.0.0.1", 0, [this, limits](int fd, std::string, std::uint16_t) {
          server = std::make_unique<TcpTransport>(loop, Role::kDaemonSide,
                                                  &registry);
          server->set_ingest_limits(limits);
          server->adopt(fd);
        }));
    client_fd = raw_client(listener.port());
    for (int i = 0; i < 400 && !server; ++i) loop.run_once(2);
    EXPECT_TRUE(server != nullptr);
  }

  ~FirehoseHarness() {
    if (client_fd >= 0) ::close(client_fd);
  }

  /// Pushes as much of `data` (starting at `offset`) as the socket takes.
  void send_some(const std::vector<std::uint8_t>& data, std::size_t& offset) {
    while (offset < data.size()) {
      const ssize_t n = ::send(client_fd, data.data() + offset,
                               data.size() - offset, MSG_NOSIGNAL);
      if (n <= 0) break;  // EAGAIN: the kernel window is full (backpressure)
      offset += static_cast<std::size_t>(n);
    }
  }
};

TEST(Backpressure, QueueWatermarkPausesReadsAndBoundsMemory) {
  IngestLimits limits;
  limits.queue_high_watermark = 8192;
  limits.queue_low_watermark = 2048;
  FirehoseHarness h(limits);

  const std::vector<std::uint8_t> payload(256 * 1024, 0xAB);
  std::size_t offset = 0;
  // Fill without consuming: the transport must pause instead of buffering
  // the whole 256 KiB.
  for (int i = 0; i < 400 && !h.server->reads_paused(); ++i) {
    h.send_some(payload, offset);
    h.loop.run_once(2);
  }
  ASSERT_TRUE(h.server->reads_paused());
  // Bound: the queue never exceeds the watermark by more than one read
  // chunk (the drain loop checks after every chunk).
  EXPECT_GE(h.server->inbound_queue_bytes(), limits.queue_high_watermark);
  EXPECT_LE(h.server->inbound_queue_bytes(),
            limits.queue_high_watermark + 16384);
  EXPECT_GE(h.registry.counter_total("gill_overload_read_pauses_total"), 1u);

  // Paused means paused: more client bytes do not grow the queue.
  const std::size_t held = h.server->inbound_queue_bytes();
  for (int i = 0; i < 50; ++i) {
    h.send_some(payload, offset);
    h.loop.run_once(2);
  }
  EXPECT_EQ(h.server->inbound_queue_bytes(), held);

  // The session layer drains; sync() re-arms reads and the rest flows.
  std::size_t consumed = 0;
  for (int i = 0; i < 4000 && consumed < payload.size(); ++i) {
    consumed += h.server->to_daemon.read().size();
    h.send_some(payload, offset);
    h.server->sync();
    h.loop.run_once(2);
  }
  EXPECT_EQ(consumed, payload.size());
  EXPECT_FALSE(h.server->reads_paused());
  EXPECT_GE(h.registry.counter_total("gill_overload_read_resumes_total"), 1u);
  EXPECT_EQ(h.registry.counter_total("gill_overload_read_pauses_total"),
            h.registry.counter_total("gill_overload_read_resumes_total"));
}

TEST(Backpressure, RateLimitPausesUntilTheBucketRefills) {
  IngestLimits limits;
  limits.max_bytes_per_sec = 512 * 1024;  // refills a 16 KiB debt in ~32 ms
  limits.burst_bytes = 4096;
  FirehoseHarness h(limits);

  const std::vector<std::uint8_t> payload(64 * 1024, 0xCD);
  std::size_t offset = 0;
  std::size_t consumed = 0;
  bool paused_once = false;
  for (int i = 0; i < 4000 && consumed < payload.size(); ++i) {
    h.send_some(payload, offset);
    consumed += h.server->to_daemon.read().size();  // drain eagerly
    paused_once = paused_once || h.server->reads_paused();
    h.server->sync();  // resumes only once the bucket is out of debt
    h.loop.run_once(2);
  }
  // The burst is far below one chunk, so the limiter must have tripped,
  // and refill must have let every byte through eventually.
  EXPECT_TRUE(paused_once);
  EXPECT_EQ(consumed, payload.size());
  EXPECT_GE(h.registry.counter_total("gill_overload_read_pauses_total"), 1u);
}

// ---------------------------------------------------------------------------
// Platform degraded mode: memory watermark -> shed, recover.
// ---------------------------------------------------------------------------

TEST(Degraded, MemoryWatermarkShedsLowestVolumeAndRecovers) {
  std::size_t memory = 100;
  metrics::Registry registry;
  collect::PlatformConfig config;
  config.registry = &registry;
  config.overload.mem_high_watermark = 1000;
  config.overload.mem_low_watermark = 500;
  config.overload.shed_per_step = 1;
  config.overload.max_shed_fraction = 0.5;
  config.overload.memory_probe = [&memory] { return memory; };
  collect::Platform platform(config);

  const auto vp0 = platform.add_peer(65001, 1);
  const auto vp1 = platform.add_peer(65002, 1);
  const auto vp2 = platform.add_peer(65003, 1);
  platform.step(1);
  // Distinct volumes make the shed ranking deterministic: vp2 is weakest.
  platform.remote(vp0).send_synthetic_burst(30, 10u << 24);
  platform.remote(vp1).send_synthetic_burst(20, 11u << 24);
  platform.remote(vp2).send_synthetic_burst(10, 12u << 24);
  platform.step(2);
  ASSERT_FALSE(platform.degraded());

  // Memory crosses the watermark: degraded mode, one peer shed per step.
  memory = 2000;
  platform.step(3);
  EXPECT_TRUE(platform.degraded());
  EXPECT_EQ(platform.shed_count(), 1u);
  EXPECT_EQ(platform.health(vp2).status, collect::PeerStatus::kShed);
  EXPECT_EQ(platform.health(vp0).status, collect::PeerStatus::kHealthy);
  const std::string exposition = registry.expose_prometheus();
  EXPECT_NE(exposition.find("gill_overload_degraded 1"), std::string::npos);
  EXPECT_NE(exposition.find("gill_overload_memory_bytes 2000"),
            std::string::npos);

  // max_shed_fraction caps at half the population: floor(0.5 * 3) = 1.
  platform.step(4);
  EXPECT_EQ(platform.shed_count(), 1u);
  EXPECT_EQ(registry.counter_total("gill_overload_sheds_total"), 1u);

  // Operator plane reports the shed peer.
  const auto snapshot = platform.health_snapshot();
  EXPECT_EQ(snapshot.shed, 1u);
  EXPECT_NE(collect::to_json(snapshot).find("\"shed\":1"), std::string::npos);

  // A shed peer's updates stop flowing (frozen, not torn down).
  const auto frozen = platform.daemon_of(vp2).stats().updates_received;
  platform.remote(vp2).send_synthetic_burst(5, 13u << 24);
  platform.step(5);
  EXPECT_EQ(platform.daemon_of(vp2).stats().updates_received, frozen);

  // Recovery: memory drops below the low watermark; everything re-admits.
  memory = 100;
  platform.step(6);
  EXPECT_FALSE(platform.degraded());
  EXPECT_EQ(platform.shed_count(), 0u);
  EXPECT_EQ(registry.counter_total("gill_overload_readmits_total"), 1u);
  platform.step(7);  // the re-admitted session is still Established
  EXPECT_EQ(platform.health(vp2).status, collect::PeerStatus::kHealthy);
  // The frozen burst is delivered once polling resumes.
  EXPECT_EQ(platform.daemon_of(vp2).stats().updates_received, frozen + 5);
}

}  // namespace
}  // namespace gill::net
