// The closed-loop scenario harness (DESIGN.md §13): link shaping, the
// long-memory pacing model, the leak/hijack scenario builders, the verdict
// scorer, the deterministic in-memory loop — and the real thing: a forked
// gill-scenariod driving a forked gill-collectord over shaped loopback TCP
// end to end, and a forked gill-collectord archiving a BMP feed
// (`ctest -L scenario`, scaled by tools/soak.sh under sanitizers).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/collectord_process.hpp"
#include "harness/driver.hpp"
#include "harness/http_client.hpp"
#include "harness/interarrival.hpp"
#include "harness/link_model.hpp"
#include "harness/scenario.hpp"
#include "harness/verdict.hpp"
#include "mrt/mrt.hpp"
#include "simulator/internet.hpp"
#include "topology/generator.hpp"
#include "wire/bmp.hpp"

namespace {

using namespace gill;
using harness::LinkModelConfig;
using harness::ShapedTransport;

std::vector<std::uint8_t> bgp_message(std::uint8_t type, std::size_t size,
                                      std::uint8_t marker = 0) {
  std::vector<std::uint8_t> message(size, 0xff);
  message[16] = static_cast<std::uint8_t>(size >> 8);
  message[17] = static_cast<std::uint8_t>(size & 0xff);
  message[18] = type;
  if (size > 19) message[19] = marker;  // sequence tag for FIFO checks
  return message;
}

int run_command(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Link model.
// ---------------------------------------------------------------------------

TEST(LinkModel, LatencyDelaysDeliveryUntilDue) {
  LinkModelConfig config;
  config.latency_ms = 50.0;
  ShapedTransport transport(config);
  const auto update = bgp_message(2, 40);
  transport.write_to_daemon(update);
  transport.advance(10.0);
  EXPECT_TRUE(transport.to_daemon.empty());
  transport.advance(60.0);
  EXPECT_EQ(transport.to_daemon.size(), update.size());
  EXPECT_GE(transport.shaping_stats().max_delay_ms, 50.0);
}

TEST(LinkModel, JitterNeverReordersADirection) {
  LinkModelConfig config;
  config.latency_ms = 5.0;
  config.jitter_ms = 30.0;
  config.seed = 42;
  ShapedTransport transport(config);
  for (std::uint8_t i = 0; i < 20; ++i) {
    transport.write_to_daemon(bgp_message(2, 40, i));
  }
  transport.advance(10000.0);
  const auto bytes = transport.to_daemon.read();
  ASSERT_EQ(bytes.size(), 20u * 40u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(bytes[i * 40 + 19], i) << "message " << i << " out of order";
  }
}

TEST(LinkModel, LossDropsOnlyRealUpdates) {
  LinkModelConfig config;
  config.loss_rate = 1.0;  // drop every eligible message
  ShapedTransport transport(config);
  transport.write_to_daemon(bgp_message(4, 19));  // KEEPALIVE: kept
  transport.write_to_daemon(bgp_message(2, 23));  // End-of-RIB: kept
  transport.write_to_daemon(bgp_message(2, 40));  // UPDATE: dropped
  transport.write_to_peer(bgp_message(2, 40));    // daemon->peer: never lossy
  transport.advance(1000.0);
  EXPECT_EQ(transport.to_daemon.size(), 19u + 23u);
  EXPECT_EQ(transport.to_peer.size(), 40u);
  EXPECT_EQ(transport.shaping_stats().lost_updates, 1u);
}

TEST(LinkModel, BandwidthCapSerializesBackToBack) {
  LinkModelConfig config;
  config.bandwidth_bytes_per_sec = 1000.0;  // 100 bytes = 100 ms on the wire
  ShapedTransport transport(config);
  transport.write_to_daemon(bgp_message(2, 100));
  transport.write_to_daemon(bgp_message(2, 100));
  transport.advance(150.0);
  EXPECT_EQ(transport.to_daemon.size(), 100u);  // second still serializing
  transport.advance(250.0);
  EXPECT_EQ(transport.to_daemon.size(), 200u);
}

TEST(LinkModel, DisconnectFlushesTheShapingQueues) {
  LinkModelConfig config;
  config.latency_ms = 100.0;
  ShapedTransport transport(config);
  transport.write_to_daemon(bgp_message(2, 40));
  transport.disconnect();
  transport.reconnect();
  transport.advance(10000.0);
  EXPECT_TRUE(transport.to_daemon.empty());
  EXPECT_TRUE(transport.shaping_idle());
}

// ---------------------------------------------------------------------------
// Long-memory pacing.
// ---------------------------------------------------------------------------

TEST(Interarrival, PaceFillsTheWindowMonotonically) {
  harness::InterarrivalConfig config;
  config.seed = 7;
  harness::LongMemoryScheduler scheduler(config);
  const auto offsets = scheduler.pace(200, 3000.0);
  ASSERT_EQ(offsets.size(), 200u);
  EXPECT_DOUBLE_EQ(offsets.back(), 3000.0);
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_LE(offsets[i - 1], offsets[i]);
  }
}

// The point of the Kitsak-style model: BGP update interarrivals have long
// memory. Counts binned per second must show a variance-time Hurst
// exponent well above the ~0.5 of a plain Poisson process.
TEST(Interarrival, LongMemoryBeatsPoissonOnTheHurstExponent) {
  auto hurst_of = [](double volatility) {
    harness::InterarrivalConfig config;
    config.mean_rate_per_sec = 40.0;
    config.volatility = volatility;
    config.seed = 11;
    harness::LongMemoryScheduler scheduler(config);
    std::vector<double> counts(2048, 0.0);
    double t_ms = 0.0;
    while (true) {
      t_ms += scheduler.next_gap_ms();
      const auto bin = static_cast<std::size_t>(t_ms / 1000.0);
      if (bin >= counts.size()) break;
      counts[bin] += 1.0;
    }
    return harness::variance_time_hurst(counts);
  };
  const double poisson = hurst_of(0.0);
  const double long_memory = hurst_of(0.9);
  EXPECT_NEAR(poisson, 0.5, 0.15);
  EXPECT_GT(long_memory, poisson + 0.1);
}

// ---------------------------------------------------------------------------
// Scenario builders + simulator events.
// ---------------------------------------------------------------------------

harness::ScenarioConfig small_config(harness::ScenarioKind kind,
                                     std::uint64_t seed) {
  harness::ScenarioConfig config;
  config.kind = kind;
  config.as_count = 32;
  config.vp_count = 4;
  config.seed = seed;
  config.link.latency_ms = 5.0;
  config.link.jitter_ms = 2.0;
  config.link.loss_rate = 0.01;
  return config;
}

TEST(Scenario, RouteLeakBuildsObservableGroundTruth) {
  const auto scenario = harness::build_scenario(
      small_config(harness::ScenarioKind::kRouteLeak, 3));
  EXPECT_FALSE(scenario.rib.empty());
  EXPECT_FALSE(scenario.events.empty());
  ASSERT_FALSE(scenario.anomaly_truths.empty());
  for (const auto& truth : scenario.anomaly_truths) {
    EXPECT_EQ(truth.kind, sim::GroundTruth::Kind::kRouteLeak);
    EXPECT_FALSE(truth.observers.empty());
    EXPECT_EQ(truth.other_as, scenario.actor);
  }
  // The replay must actually carry evidence for every scored truth.
  harness::VerdictScorer scorer(scenario);
  for (std::size_t i = 0; i < scenario.anomaly_truths.size(); ++i) {
    std::size_t evidence = 0;
    for (const auto& update : scenario.events.updates()) {
      if (scorer.is_evidence(i, update)) ++evidence;
    }
    EXPECT_GE(evidence, 1u) << "truth " << i << " has no evidence update";
  }
}

TEST(Scenario, SubprefixHijackAnnouncesTheMoreSpecific) {
  const auto scenario = harness::build_scenario(
      small_config(harness::ScenarioKind::kSubprefixHijack, 5));
  ASSERT_FALSE(scenario.anomaly_truths.empty());
  const auto& truth = scenario.anomaly_truths.front();
  EXPECT_EQ(truth.kind, sim::GroundTruth::Kind::kSubprefixHijack);
  EXPECT_EQ(truth.other_as, scenario.actor);
  bool tagged_evidence = false;
  harness::VerdictScorer scorer(scenario);
  for (const auto& update : scenario.events.updates()) {
    if (!scorer.is_evidence(0, update)) continue;
    EXPECT_EQ(update.prefix, truth.prefix);
    EXPECT_EQ(update.path.origin(), scenario.actor);
    for (const auto& community : update.communities) {
      tagged_evidence = tagged_evidence || community == scenario.tag;
    }
  }
  EXPECT_TRUE(tagged_evidence) << "no evidence update carries the tag";
}

TEST(Scenario, ClearingAHijackOverrideWithdrawsTheSubprefix) {
  const auto params =
      topo::ArtificialParams{.as_count = 32, .seed = 9};
  const auto topology = topo::generate_artificial(params);
  sim::InternetConfig config;
  config.vp_hosts = {0, 1, 2};
  config.rng_seed = 9;
  sim::Internet internet(topology, config);
  // Find an (attacker, parent) pair the hijack event accepts.
  bgp::Update evidence;
  net::Prefix sub;
  bool hijacked = false;
  for (bgp::AsNumber victim = 3; victim < 32 && !hijacked; ++victim) {
    if (internet.prefixes()[victim].empty()) continue;
    const net::Prefix parent = internet.prefixes()[victim].front();
    for (bgp::AsNumber attacker = 3; attacker < 32; ++attacker) {
      if (attacker == victim) continue;
      const auto stream =
          internet.start_subprefix_hijack(attacker, parent, 2, 100);
      if (stream.empty()) continue;
      evidence = stream.updates().front();
      sub = evidence.prefix;
      hijacked = true;
      break;
    }
  }
  ASSERT_TRUE(hijacked);
  EXPECT_FALSE(evidence.withdrawal);
  // The regression this pins down: clearing an override whose prefix no
  // origin statically announces must WITHDRAW it, not diff against AS 0's
  // unrelated table.
  const auto cleanup = internet.clear_prefix_override(sub, 200);
  ASSERT_FALSE(cleanup.empty());
  for (const auto& update : cleanup.updates()) {
    EXPECT_TRUE(update.withdrawal);
    EXPECT_EQ(update.prefix, sub);
  }
}

// ---------------------------------------------------------------------------
// The closed loop, deterministic in-memory flavor.
// ---------------------------------------------------------------------------

TEST(ClosedLoop, InMemoryRunDetectsBothScenarioKinds) {
  for (const auto kind : {harness::ScenarioKind::kRouteLeak,
                          harness::ScenarioKind::kSubprefixHijack}) {
    auto scenario = harness::build_scenario(small_config(kind, 4));
    harness::DriverConfig driver_config;
    driver_config.replay_ms = 800.0;
    harness::ScenarioDriver driver(scenario, driver_config);
    const auto verdict = driver.run_in_memory();
    EXPECT_TRUE(verdict.passed) << verdict.to_json();
    EXPECT_GT(verdict.delivery_completeness, 0.9);
    EXPECT_GT(verdict.updates_sent, 0u);
    for (const auto& event : verdict.events) {
      EXPECT_TRUE(event.detected_archive) << verdict.to_json();
      EXPECT_TRUE(event.detected_stream) << verdict.to_json();
      EXPECT_TRUE(event.tagged) << verdict.to_json();
      EXPECT_GE(event.detection_latency_ms, 0.0);
    }
  }
}

// Same scenario config + seed => byte-identical archived MRT, run to run
// (the platform's determinism contract extended through the whole harness
// stack).
TEST(ClosedLoop, ArchivedStreamIsByteIdenticalAcrossRuns) {
  const auto config =
      small_config(harness::ScenarioKind::kRouteLeak, 6);
  auto run = [&] {
    auto scenario = harness::build_scenario(config);
    harness::DriverConfig driver_config;
    driver_config.replay_ms = 800.0;
    harness::ScenarioDriver driver(scenario, driver_config);
    const auto verdict = driver.run_in_memory();
    EXPECT_TRUE(verdict.passed) << verdict.to_json();
    return driver.archived_bytes();
  };
  const auto first = run();
  const auto second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "re-run diverged";
}

// ---------------------------------------------------------------------------
// The real thing: gill-scenariod forks a gill-collectord and drives it
// over shaped loopback TCP; the verdict and the exit status close the loop.
// ---------------------------------------------------------------------------

TEST(ClosedLoop, ScenariodDrivesARealCollectordOverShapedTcp) {
  const std::string verdict_path =
      ::testing::TempDir() + "/scenario_verdict.json";
  std::remove(verdict_path.c_str());
  const std::string command =
      std::string(GILL_SCENARIOD_PATH) + " --collectord " +
      GILL_COLLECTORD_PATH +
      " --scenario route-leak --scenario subprefix-hijack"
      " --latency-ms 12 --jitter-ms 5 --loss 0.02"
      " --replay-ms 1200 --settle-ms 2000 --seed 2"
      " --verdict " + verdict_path + " >/dev/null 2>&1";
  ASSERT_EQ(run_command(command), 0) << command;
  const std::string verdict = slurp(verdict_path);
  ASSERT_FALSE(verdict.empty());
  EXPECT_NE(verdict.find("\"passed\":true"), std::string::npos) << verdict;
  EXPECT_NE(verdict.find("\"detected\":true"), std::string::npos) << verdict;
  EXPECT_NE(verdict.find("\"scenario\":\"route-leak\""), std::string::npos);
  EXPECT_NE(verdict.find("\"scenario\":\"subprefix-hijack\""),
            std::string::npos);
  EXPECT_EQ(verdict.find("\"detected\":false"), std::string::npos) << verdict;
  std::remove(verdict_path.c_str());
}

// A BMP feed reaches the real collector's segment store, and the writer's
// timer seals the window with no later record to trigger it: the feed's
// one announcement is served by /v1/data while the collector keeps running.
TEST(ClosedLoop, CollectordArchivesABmpFeedAndSealsItOnTheTimer) {
  const std::uint16_t bmp_port = harness::pick_free_port();
  ASSERT_NE(bmp_port, 0);
  harness::CollectordProcess collectord;
  ASSERT_TRUE(collectord.start(
      GILL_COLLECTORD_PATH,
      {"--bmp-port", std::to_string(bmp_port), "--duration", "60"}))
      << "collector never served /v1/healthz";

  wire::BmpRouteMonitoring monitoring;
  monitoring.peer.address = net::IpAddress::parse("192.0.2.9").value();
  monitoring.peer.as = 65010;
  monitoring.peer.timestamp_sec =
      static_cast<std::uint32_t>(std::time(nullptr));
  monitoring.update.nlri = {net::Prefix::parse("10.77.0.0/24").value()};
  monitoring.update.path = bgp::AsPath{65010, 64500};
  monitoring.update.next_hop = 1;
  const std::vector<std::uint8_t> bytes = wire::encode_bmp(monitoring);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(bmp_port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool sent =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(bytes.size());
  EXPECT_TRUE(sent);
  // Rotation is 1 s: the window seals from the timer within ~2 s.
  std::string body;
  for (int i = 0; i < 100 && sent && body.empty(); ++i) {
    ::usleep(100 * 1000);
    const auto data = harness::http_get("127.0.0.1", collectord.http_port,
                                        "/v1/data", 1000);
    if (data && data->status == 200) body = data->body;
  }
  ::close(fd);
  collectord.stop();

  mrt::Reader reader(std::span(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size()));
  const auto record = reader.next();
  ASSERT_TRUE(record.has_value()) << "no archived record served";
  EXPECT_EQ(record->update.prefix, net::Prefix::parse("10.77.0.0/24").value());
  EXPECT_EQ(record->update.path, (bgp::AsPath{65010, 64500}));
  EXPECT_FALSE(reader.next().has_value());
}

// gill-simulate's status code is part of the harness contract: nonsense
// configs and mid-run failures must not exit 0.
TEST(ClosedLoop, SimulateExitsNonZeroOnBadScenarios) {
  EXPECT_NE(run_command(std::string(GILL_SIMULATE_PATH) +
                        " --ases 0 --out /dev/null 2>/dev/null"),
            0);
  EXPECT_NE(run_command(std::string(GILL_SIMULATE_PATH) +
                        " --ases 40 --vps 6 --hours 1"
                        " --out /nonexistent-dir/u.mrt 2>/dev/null"),
            0);
  const std::string out = ::testing::TempDir() + "/simulate_ok.mrt";
  EXPECT_EQ(run_command(std::string(GILL_SIMULATE_PATH) +
                        " --ases 40 --vps 6 --hours 1 --out " + out +
                        " >/dev/null 2>&1"),
            0);
  std::remove(out.c_str());
}

}  // namespace
