#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "daemon/bmp_ingest.hpp"
#include "daemon/daemon.hpp"
#include "wire/bmp.hpp"

namespace gill::daemon {
namespace {

net::Prefix pfx(const char* text) { return net::Prefix::parse(text).value(); }

struct Harness {
  Transport transport;
  MrtStore store;
  filt::FilterTable filters;
  BgpDaemon daemon{1, 65000, transport, &filters, &store};
  FakePeer peer{65010, transport};

  void establish() {
    daemon.start(0);
    peer.poll();       // peer answers OPEN + KEEPALIVE
    daemon.poll(1);    // daemon handles both, replies KEEPALIVE
    peer.poll();       // peer sees the KEEPALIVE
    daemon.tick(1);
  }
};

TEST(Session, HandshakeReachesEstablished) {
  Harness h;
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);
  h.daemon.start(0);
  EXPECT_EQ(h.daemon.state(), SessionState::kOpenSent);
  h.peer.poll();
  h.daemon.poll(1);
  EXPECT_EQ(h.daemon.state(), SessionState::kEstablished);
  EXPECT_EQ(h.daemon.peer_as(), 65010u);
  h.peer.poll();
  EXPECT_TRUE(h.peer.established());
}

TEST(Session, UpdateBeforeEstablishedResetsSession) {
  Harness h;
  h.daemon.start(0);
  // Peer misbehaves: sends an UPDATE without completing the handshake.
  bgp::Update update;
  update.prefix = pfx("10.0.0.0/24");
  update.path = bgp::AsPath{65010};
  h.peer.send_update(update);
  h.daemon.poll(1);
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);
  EXPECT_EQ(h.daemon.stats().notifications_sent, 1u);
  EXPECT_EQ(h.store.stored(), 0u);
}

TEST(Session, UpdatesAreStoredWhenEstablished) {
  Harness h;
  h.establish();
  bgp::Update update;
  update.prefix = pfx("10.0.0.0/24");
  update.path = bgp::AsPath{65010, 65011};
  update.communities = bgp::CommunitySet{{65010, 1}};
  h.peer.send_update(update);
  h.daemon.poll(5);
  EXPECT_EQ(h.daemon.stats().updates_received, 1u);
  EXPECT_EQ(h.daemon.stats().updates_stored, 1u);
  EXPECT_EQ(h.store.stored(), 1u);

  // The stored record decodes back with VP id and timestamp applied.
  mrt::Reader reader(h.store.writer().buffer());
  const auto record = reader.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->update.vp, 1u);
  EXPECT_EQ(record->update.time, 5);
  EXPECT_EQ(record->update.path.str(), "65010 65011");

  // stats() is a view over the registry: the same count is scrapeable.
  EXPECT_EQ(h.daemon.metrics().counter_total("gill_daemon_updates_stored_total"),
            1u);
  EXPECT_NE(h.daemon.metrics().expose_prometheus().find(
                "gill_daemon_updates_stored_total{vp=\"1\"} 1"),
            std::string::npos);
}

TEST(Session, FiltersDiscardBeforeStore) {
  Harness h;
  h.filters.add_drop(1, pfx("10.0.0.0/24"));
  h.establish();

  bgp::Update dropped;
  dropped.prefix = pfx("10.0.0.0/24");
  dropped.path = bgp::AsPath{65010};
  h.peer.send_update(dropped);
  bgp::Update kept;
  kept.prefix = pfx("10.0.1.0/24");
  kept.path = bgp::AsPath{65010};
  h.peer.send_update(kept);
  h.daemon.poll(5);

  EXPECT_EQ(h.daemon.stats().updates_received, 2u);
  EXPECT_EQ(h.daemon.stats().updates_filtered, 1u);
  EXPECT_EQ(h.daemon.stats().updates_stored, 1u);
}

TEST(Session, MirrorSeesUpdatesBeforeFilters) {
  Harness h;
  h.filters.add_drop(1, pfx("10.0.0.0/24"));
  std::size_t mirrored = 0;
  h.daemon.set_mirror([&](const bgp::Update&) { ++mirrored; });
  h.establish();
  bgp::Update update;
  update.prefix = pfx("10.0.0.0/24");
  update.path = bgp::AsPath{65010};
  h.peer.send_update(update);
  h.daemon.poll(5);
  EXPECT_EQ(mirrored, 1u);                            // mirrored
  EXPECT_EQ(h.daemon.stats().updates_filtered, 1u);   // but filtered
}

TEST(Session, WithdrawalsFlowThrough) {
  Harness h;
  h.establish();
  bgp::Update withdrawal;
  withdrawal.prefix = pfx("10.0.0.0/24");
  withdrawal.withdrawal = true;
  h.peer.send_update(withdrawal);
  h.daemon.poll(7);
  EXPECT_EQ(h.daemon.stats().updates_stored, 1u);
  mrt::Reader reader(h.store.writer().buffer());
  const auto record = reader.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->update.withdrawal);
}

TEST(Session, HoldTimerExpiryTearsDown) {
  Harness h;
  h.establish();
  EXPECT_EQ(h.daemon.state(), SessionState::kEstablished);
  h.daemon.tick(50);  // within hold time (90 s)
  EXPECT_EQ(h.daemon.state(), SessionState::kEstablished);
  h.daemon.tick(200);  // past hold time
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);
  EXPECT_EQ(h.daemon.stats().notifications_sent, 1u);
}

TEST(Session, GarbageBytesAreResynchronized) {
  Harness h;
  h.establish();
  const std::vector<std::uint8_t> garbage(10, 0x55);
  h.transport.to_daemon.write(garbage);
  bgp::Update update;
  update.prefix = pfx("10.0.0.0/24");
  update.path = bgp::AsPath{65010};
  h.peer.send_update(update);
  h.daemon.poll(5);
  EXPECT_EQ(h.daemon.stats().garbage_bytes, 10u);
  EXPECT_EQ(h.daemon.stats().updates_stored, 1u);  // still decodes after
}

TEST(Session, SyntheticBurst) {
  Harness h;
  h.establish();
  h.peer.send_synthetic_burst(100, 10u << 24);
  h.daemon.poll(5);
  EXPECT_EQ(h.daemon.stats().updates_received, 100u);
  EXPECT_EQ(h.store.stored(), 100u);
}

TEST(ByteQueue, PartialReads) {
  ByteQueue queue;
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  queue.write(data);
  const auto first = queue.read(2);
  EXPECT_EQ(first, (std::vector<std::uint8_t>{1, 2}));
  const auto rest = queue.read();
  EXPECT_EQ(rest, (std::vector<std::uint8_t>{3, 4, 5}));
  EXPECT_TRUE(queue.empty());
}

TEST(Session, PeriodicRibDumps) {
  Harness h;
  h.daemon.enable_rib_dumps(8 * 3600);  // §8: every eight hours
  h.establish();

  bgp::Update update;
  update.prefix = pfx("10.0.0.0/24");
  update.path = bgp::AsPath{65010, 64500};
  h.peer.send_update(update);
  bgp::Update other;
  other.prefix = pfx("10.0.1.0/24");
  other.path = bgp::AsPath{65010, 64501};
  h.peer.send_update(other);
  h.daemon.poll(5);
  EXPECT_EQ(h.daemon.rib().size(), 2u);

  const std::size_t before = h.store.stored();
  h.peer.send_keepalive();
  h.daemon.poll(9 * 3600 - 10);  // keepalive refreshes the hold timer
  h.daemon.tick(9 * 3600);       // crosses the dump interval
  EXPECT_EQ(h.daemon.rib_dumps_written(), 1u);
  EXPECT_EQ(h.store.stored(), before + 2);  // one entry per prefix

  // The snapshot records decode as TABLE_DUMP entries with the session VP.
  mrt::Reader reader(h.store.writer().buffer());
  std::size_t table_dump_records = 0;
  while (const auto record = reader.next()) {
    if (record->type == mrt::RecordType::kTableDumpV2) {
      ++table_dump_records;
      EXPECT_EQ(record->update.vp, 1u);
      EXPECT_EQ(record->update.time, 9 * 3600);
    }
  }
  EXPECT_EQ(table_dump_records, 2u);

  // A withdrawal shrinks the tracked RIB; the next interval dumps less.
  bgp::Update withdrawal;
  withdrawal.prefix = pfx("10.0.0.0/24");
  withdrawal.withdrawal = true;
  h.peer.send_update(withdrawal);
  h.daemon.poll(9 * 3600 + 10);
  h.peer.send_keepalive();
  h.daemon.poll(18 * 3600 - 10);
  h.daemon.tick(18 * 3600);
  EXPECT_EQ(h.daemon.rib_dumps_written(), 2u);
  EXPECT_EQ(h.daemon.rib().size(), 1u);
}

TEST(ByteQueue, InterleavedWritesAndReads) {
  ByteQueue queue;
  std::vector<std::uint8_t> reference;  // bytes written, in order
  std::size_t read_cursor = 0;
  std::mt19937_64 rng(7);
  for (int round = 0; round < 4000; ++round) {
    const std::size_t n = 1 + rng() % 37;
    std::vector<std::uint8_t> block(n);
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    queue.write(block);
    reference.insert(reference.end(), block.begin(), block.end());
    if (rng() % 3 != 0) {
      const auto out = queue.read(1 + rng() % 53);
      for (const std::uint8_t b : out) {
        ASSERT_LT(read_cursor, reference.size());
        ASSERT_EQ(b, reference[read_cursor]) << "at byte " << read_cursor;
        ++read_cursor;
      }
    }
  }
  const auto rest = queue.read();
  for (const std::uint8_t b : rest) {
    ASSERT_EQ(b, reference.at(read_cursor++));
  }
  EXPECT_EQ(read_cursor, reference.size());
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

// ---------------------------------------------------------------------------
// Reconnect FSM, backoff, and teardown causes.
// ---------------------------------------------------------------------------

RetryPolicy no_jitter_policy() {
  RetryPolicy policy;
  policy.jitter = 0.0;
  return policy;
}

TEST(RetryPolicy, DeterministicSchedule) {
  RetryPolicy jittered;
  jittered.jitter_seed = 42;
  // Golden schedule for {base=1, cap=64, multiplier=2, jitter=0.25, seed=42}.
  const Timestamp golden[] = {1, 2, 4, 7, 12, 24, 61, 59, 53, 52};
  for (std::size_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(jittered.delay(attempt), golden[attempt]) << attempt;
  }
  // Pure function of (policy, attempt): order of evaluation is irrelevant.
  for (std::size_t attempt = 10; attempt-- > 0;) {
    EXPECT_EQ(jittered.delay(attempt), golden[attempt]) << attempt;
  }

  const Timestamp exact[] = {1, 2, 4, 8, 16, 32, 64, 64, 64, 64};
  for (std::size_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(no_jitter_policy().delay(attempt), exact[attempt]) << attempt;
  }
}

TEST(RetryPolicy, JitterStaysWithinBounds) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    RetryPolicy policy;
    policy.jitter_seed = seed;
    for (std::size_t attempt = 0; attempt < 12; ++attempt) {
      const Timestamp raw = std::min<Timestamp>(
          policy.cap, policy.base << std::min<std::size_t>(attempt, 6));
      const Timestamp delay = policy.delay(attempt);
      EXPECT_LE(delay, raw) << "seed " << seed << " attempt " << attempt;
      EXPECT_GE(delay, std::max<Timestamp>(
                           1, static_cast<Timestamp>(
                                  std::floor(0.75 * static_cast<double>(raw)))))
          << "seed " << seed << " attempt " << attempt;
    }
  }
}

TEST(Session, HoldTimerExpiryNotificationCode) {
  Harness h;
  h.establish();
  h.daemon.tick(200);  // past the 90 s hold time
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);
  ASSERT_TRUE(h.daemon.last_notification_sent().has_value());
  EXPECT_EQ(h.daemon.last_notification_sent()->code, 4);  // hold expired
  EXPECT_EQ(h.daemon.last_notification_sent()->subcode, 0);
}

TEST(Session, UpdateBeforeEstablishedNotificationCode) {
  Harness h;
  h.daemon.start(0);
  bgp::Update update;
  update.prefix = pfx("10.0.0.0/24");
  update.path = bgp::AsPath{65010};
  h.peer.send_update(update);
  h.daemon.poll(1);
  ASSERT_TRUE(h.daemon.last_notification_sent().has_value());
  EXPECT_EQ(h.daemon.last_notification_sent()->code, 5);  // FSM error
}

TEST(Session, UnexpectedOpenNotificationCode) {
  Harness h;
  h.establish();
  wire::OpenMessage open;
  open.as = 65010;
  h.transport.write_to_daemon(wire::encode(open));  // OPEN while Established
  h.daemon.poll(2);
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);
  ASSERT_TRUE(h.daemon.last_notification_sent().has_value());
  EXPECT_EQ(h.daemon.last_notification_sent()->code, 6);
}

TEST(Session, PeerNotificationTearsDownSilently) {
  Harness h;
  h.establish();
  h.transport.write_to_daemon(wire::encode(wire::NotificationMessage{6, 0}));
  h.daemon.poll(2);
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);
  // The daemon did not answer with a NOTIFICATION of its own.
  EXPECT_EQ(h.daemon.stats().notifications_sent, 0u);
  EXPECT_FALSE(h.daemon.last_notification_sent().has_value());
}

TEST(Session, KeepalivesAreGenerated) {
  Harness h;
  h.establish();
  // One keepalive per hold_time/3 = 30 s of silence from our side.
  h.daemon.tick(31);
  EXPECT_EQ(h.daemon.stats().keepalives_sent, 1u);
  h.daemon.tick(45);  // not due yet
  EXPECT_EQ(h.daemon.stats().keepalives_sent, 1u);
  h.daemon.tick(61);
  EXPECT_EQ(h.daemon.stats().keepalives_sent, 2u);
  h.peer.poll();  // the peer reads them without complaint
  EXPECT_TRUE(h.peer.established());
}

TEST(Session, ReconnectAfterHoldExpiryWithBackoff) {
  Harness h;
  h.daemon.set_retry_policy(no_jitter_policy());
  h.establish();
  h.daemon.tick(200);  // hold expiry -> Idle, reconnect in base=1 s
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);
  EXPECT_EQ(h.daemon.next_reconnect_at(), 201);
  h.daemon.tick(200);  // not due yet
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);

  h.daemon.tick(201);  // backoff elapsed: OPEN re-sent
  EXPECT_EQ(h.daemon.state(), SessionState::kOpenSent);
  EXPECT_EQ(h.daemon.stats().reconnects, 1u);
  h.peer.poll();
  h.daemon.poll(202);
  EXPECT_EQ(h.daemon.state(), SessionState::kEstablished);
  EXPECT_EQ(h.daemon.peer_as(), 65010u);
  h.peer.poll();
  EXPECT_TRUE(h.peer.established());
}

TEST(Session, BackoffGrowsAcrossConsecutiveFailures) {
  Harness h;
  h.daemon.set_retry_policy(no_jitter_policy());
  h.daemon.start(0);
  // The peer never answers: every session attempt dies by hold expiry, and
  // the gap between attempts doubles (1, 2, 4, ... capped at 64).
  Timestamp now = 0;
  Timestamp previous_gap = 0;
  for (int failures = 0; failures < 4; ++failures) {
    now += 91;  // hold expires
    h.daemon.tick(now);
    EXPECT_EQ(h.daemon.state(), SessionState::kIdle);
    const Timestamp gap = h.daemon.next_reconnect_at() - now;
    EXPECT_EQ(gap, Timestamp{1} << failures);
    EXPECT_GT(gap, previous_gap);
    previous_gap = gap;
    now = h.daemon.next_reconnect_at();
    h.daemon.tick(now);
    EXPECT_EQ(h.daemon.state(), SessionState::kOpenSent);
  }
}

TEST(Session, EstablishedSessionResetsBackoff) {
  Harness h;
  h.daemon.set_retry_policy(no_jitter_policy());
  h.establish();
  h.daemon.tick(200);  // failure #1 while attempt counter is fresh
  EXPECT_EQ(h.daemon.next_reconnect_at() - 200, 1);
  h.daemon.tick(201);
  h.peer.poll();
  h.daemon.poll(202);
  EXPECT_EQ(h.daemon.state(), SessionState::kEstablished);
  // A full session reset the schedule: the next failure starts at base again.
  h.daemon.tick(400);
  EXPECT_EQ(h.daemon.next_reconnect_at() - 400, 1);
}

TEST(Session, TransportDisconnectSchedulesReconnect) {
  Harness h;
  h.daemon.set_retry_policy(no_jitter_policy());
  h.establish();
  h.transport.disconnect();  // TCP reset under the daemon
  h.daemon.poll(10);
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);
  EXPECT_EQ(h.daemon.next_reconnect_at(), 11);
  h.daemon.tick(11);  // the daemon reopens the transport itself
  EXPECT_TRUE(h.transport.connected());
  EXPECT_EQ(h.daemon.state(), SessionState::kOpenSent);
  h.peer.poll();
  h.daemon.poll(12);
  EXPECT_EQ(h.daemon.state(), SessionState::kEstablished);
}

TEST(Session, ReconnectClearsStaleRib) {
  Harness h;
  h.daemon.set_retry_policy(no_jitter_policy());
  h.daemon.enable_rib_dumps(8 * 3600);  // arms RIB tracking
  h.establish();
  bgp::Update update;
  update.prefix = pfx("10.0.0.0/24");
  update.path = bgp::AsPath{65010};
  h.peer.send_update(update);
  h.daemon.poll(5);
  EXPECT_EQ(h.daemon.rib().size(), 1u);

  h.daemon.tick(200);  // hold expiry
  h.daemon.tick(201);  // reconnect
  EXPECT_EQ(h.daemon.rib().size(), 0u);  // stale table dropped for replay
  EXPECT_EQ(h.daemon.stats().resyncs, 1u);

  h.peer.poll();
  h.daemon.poll(202);
  EXPECT_EQ(h.daemon.state(), SessionState::kEstablished);
  h.peer.send_update(update);  // the peer replays its routes
  h.daemon.poll(203);
  EXPECT_EQ(h.daemon.rib().size(), 1u);
}

TEST(Session, NoReconnectWithoutRetryPolicy) {
  Harness h;
  h.establish();
  h.daemon.tick(200);
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);
  EXPECT_EQ(h.daemon.next_reconnect_at(), 0);
  h.daemon.tick(10000);
  EXPECT_EQ(h.daemon.state(), SessionState::kIdle);  // single-shot session
}

TEST(Session, MalformedMessagesCountDecodeErrors) {
  Harness h;
  h.establish();
  // A contiguous garbage run counts once, however long it is. A trailing
  // keepalive lets the resynchronization walk the full run (the last <19
  // bytes would otherwise wait as a potentially incomplete header).
  const std::vector<std::uint8_t> garbage(32, 0x55);
  h.transport.write_to_daemon(garbage);
  h.peer.send_keepalive();
  h.daemon.poll(2);
  EXPECT_EQ(h.daemon.stats().decode_errors, 1u);
  EXPECT_EQ(h.daemon.stats().garbage_bytes, 32u);
  EXPECT_EQ(h.daemon.state(), SessionState::kEstablished);  // resynchronized
}

// ---------------------------------------------------------------------------
// Table 1 capacity model.
// ---------------------------------------------------------------------------

TEST(CapacityModel, Table1Shape) {
  const CapacityModel model;
  const double average = 28000.0;  // updates per hour (§8)
  const double p99 = 241000.0;
  const double match = 0.93;  // fraction discarded by GILL's filters (§6)

  // With filters: 100 and 1k peers always fine; 10k fine at the average
  // rate but "high" loss at the 99th percentile.
  EXPECT_DOUBLE_EQ(model.loss_fraction(100, average, true, match), 0.0);
  EXPECT_DOUBLE_EQ(model.loss_fraction(1000, average, true, match), 0.0);
  EXPECT_DOUBLE_EQ(model.loss_fraction(10000, average, true, match), 0.0);
  EXPECT_DOUBLE_EQ(model.loss_fraction(100, p99, true, match), 0.0);
  EXPECT_DOUBLE_EQ(model.loss_fraction(1000, p99, true, match), 0.0);
  EXPECT_GT(model.loss_fraction(10000, p99, true, match), 0.3);

  // Without filters: 10k peers lose updates even at the average rate, and
  // 1k peers lose updates at the 99th percentile.
  EXPECT_DOUBLE_EQ(model.loss_fraction(100, average, false, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.loss_fraction(1000, average, false, 0.0), 0.0);
  const double loss_10k_avg = model.loss_fraction(10000, average, false, 0.0);
  EXPECT_GT(loss_10k_avg, 0.2);
  EXPECT_LT(loss_10k_avg, 0.6);
  EXPECT_GT(model.loss_fraction(1000, p99, false, 0.0), 0.1);
  EXPECT_GT(model.loss_fraction(10000, p99, false, 0.0), 0.7);
}

TEST(CapacityModel, FiltersAlwaysHelp) {
  const CapacityModel model;
  for (const std::size_t peers : {100u, 1000u, 10000u, 50000u}) {
    for (const double rate : {28000.0, 241000.0}) {
      EXPECT_LE(model.loss_fraction(peers, rate, true, 0.93),
                model.loss_fraction(peers, rate, false, 0.0))
          << peers << " peers @ " << rate;
    }
  }
}

TEST(CapacityModel, LossIsMonotoneInLoad) {
  const CapacityModel model;
  double previous = 0.0;
  for (std::size_t peers = 1000; peers <= 64000; peers *= 2) {
    const double loss = model.loss_fraction(peers, 28000.0, false, 0.0);
    EXPECT_GE(loss, previous);
    previous = loss;
  }
}

// ---------------------------------------------------------------------------
// BMP ingestion (§14).
// ---------------------------------------------------------------------------

wire::BmpRouteMonitoring monitoring_for(const char* prefix,
                                        std::initializer_list<bgp::AsNumber>
                                            path,
                                        std::uint32_t timestamp) {
  wire::BmpRouteMonitoring monitoring;
  monitoring.peer.address = net::IpAddress::parse("192.0.2.9").value();
  monitoring.peer.as = 65010;
  monitoring.peer.timestamp_sec = timestamp;
  monitoring.update.nlri = {pfx(prefix)};
  monitoring.update.path = bgp::AsPath(path);
  monitoring.update.next_hop = 1;
  return monitoring;
}

TEST(BmpIngest, RouteMonitoringFlowsThroughFiltersToStore) {
  filt::FilterTable filters;
  filters.add_drop(7, pfx("10.0.0.0/24"));
  MrtStore store;
  BmpIngest ingest(7, &filters, &store);
  std::size_t mirrored = 0;
  ingest.set_mirror([&](const bgp::Update&) { ++mirrored; });

  const auto dropped =
      wire::encode_bmp(monitoring_for("10.0.0.0/24", {65010, 64500}, 1000));
  const auto kept =
      wire::encode_bmp(monitoring_for("10.0.1.0/24", {65010, 64500}, 1000));
  ingest.feed(dropped, 2000);
  ingest.feed(kept, 2000);

  EXPECT_EQ(ingest.stats().messages, 2u);
  EXPECT_EQ(ingest.stats().route_monitoring, 2u);
  EXPECT_EQ(ingest.stats().updates_received, 2u);
  EXPECT_EQ(ingest.stats().updates_filtered, 1u);
  EXPECT_EQ(ingest.stats().updates_stored, 1u);
  EXPECT_EQ(mirrored, 2u);  // mirror sees everything, pre-filter
  EXPECT_EQ(store.stored(), 1u);

  // The BMP per-peer timestamp wins over the feed clock.
  mrt::Reader reader(store.writer().buffer());
  const auto record = reader.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->update.time, 1000);
  EXPECT_EQ(record->update.vp, 7u);
}

TEST(BmpIngest, FutureTimestampFallsBackToTheFeedClock) {
  MrtStore store;
  BmpIngest ingest(7, nullptr, &store);
  ingest.feed(
      wire::encode_bmp(monitoring_for("10.0.1.0/24", {65010}, 0xFFFFFFFF)),
      2000);
  ingest.feed(wire::encode_bmp(monitoring_for("10.0.2.0/24", {65010}, 2001)),
              2000);
  ingest.feed(wire::encode_bmp(monitoring_for("10.0.3.0/24", {65010}, 0)),
              2000);

  // Neither a far-future nor a slightly-ahead stamp survives; a missing
  // stamp (0) takes the feed clock too.
  mrt::Reader reader(store.writer().buffer());
  for (int i = 0; i < 3; ++i) {
    const auto record = reader.next();
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->update.time, 2000);
  }
  EXPECT_FALSE(reader.next().has_value());
}

TEST(BmpIngest, PartialAndGarbageBytes) {
  MrtStore store;
  BmpIngest ingest(1, nullptr, &store);
  const auto bytes =
      wire::encode_bmp(monitoring_for("10.0.0.0/24", {65010}, 50));
  // Feed in two halves: nothing decodes until the message completes.
  ingest.feed(std::span(bytes.data(), bytes.size() / 2), 1);
  EXPECT_EQ(ingest.stats().messages, 0u);
  ingest.feed(std::span(bytes.data() + bytes.size() / 2,
                        bytes.size() - bytes.size() / 2),
              1);
  EXPECT_EQ(ingest.stats().messages, 1u);
  // Garbage resynchronizes.
  const std::vector<std::uint8_t> garbage(8, 0xEE);
  ingest.feed(garbage, 2);
  ingest.feed(bytes, 3);
  EXPECT_EQ(ingest.stats().garbage_bytes, 8u);
  EXPECT_EQ(ingest.stats().messages, 2u);
}

TEST(BmpIngest, PeerEventsCounted) {
  BmpIngest ingest(1, nullptr, nullptr);
  wire::BmpPeerDown down;
  down.peer.address = net::IpAddress::parse("192.0.2.9").value();
  ingest.feed(wire::encode_bmp(down), 1);
  ingest.feed(wire::encode_bmp(wire::BmpInitiation{{{2, "sys"}}}), 1);
  EXPECT_EQ(ingest.stats().peer_events, 1u);
  EXPECT_EQ(ingest.stats().messages, 2u);
}

}  // namespace
}  // namespace gill::daemon
