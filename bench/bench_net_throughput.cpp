// Networking-layer throughput: batched BGP UPDATEs pushed through a
// loopback TcpTransport pair (FakePeer generator -> kernel TCP ->
// daemon-side transport -> BgpDaemon decode), both ends driven by one
// epoll event loop. Reports decoded msgs/sec and socket bytes/sec, and
// emits BENCH_net.json.
//
// This bounds the per-session ingest rate of gill_collectord (DESIGN.md
// §7): the paper's busiest VPs export ~28K updates/hour, so the floor
// enforced under --strict (2000 msgs/sec) leaves >250x headroom per
// session even on a loaded CI box.
//
// The second half benches the sharded ingest plane (DESIGN.md §14): the
// same loopback peers spread across a 1-, 2- and 4-shard
// collect::ShardedPlatform fleet, reporting per-shard and aggregate
// msgs/sec. --strict enforces the 1.5x aggregate scaling floor at 4
// shards, but only on machines with >= 4 hardware threads (below that
// the fleet runs are informational — the shards time-slice one core).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "collector/sharded.hpp"
#include "daemon/daemon.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"

namespace {

using namespace gill;

constexpr std::uint64_t kTotalUpdates = 100000;
constexpr std::uint64_t kBatch = 500;  // one send_synthetic_burst per batch
constexpr double kStrictMsgsPerSecFloor = 2000.0;

constexpr std::size_t kFleetPeers = 8;
constexpr std::uint64_t kFleetUpdatesPerPeer = 3000;
constexpr double kStrictFleetScalingFloor = 1.5;  // 4 shards vs 1 shard

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  return buffer;
}

/// One fleet run: kFleetPeers loopback sessions against an S-shard
/// ShardedPlatform, every peer pushing kFleetUpdatesPerPeer updates.
struct FleetResult {
  std::size_t shards = 0;
  std::uint64_t updates = 0;
  double elapsed_s = 0;
  double msgs_per_sec = 0;
  std::vector<double> per_shard_msgs_per_sec;
  bool ok = false;
};

FleetResult run_fleet(std::size_t shard_count) {
  FleetResult result;
  result.shards = shard_count;

  metrics::Registry registry;
  collect::ShardedPlatformConfig config;
  config.shards = shard_count;
  config.platform.local_as = 65000;
  config.platform.registry = &registry;
  config.component1_refresh = 0;  // ingest only: no merge refresh
  collect::ShardedPlatform platform(config);
  if (!platform.listen("127.0.0.1", 0)) {
    std::fprintf(stderr, "error: fleet(%zu): cannot bind listeners\n",
                 shard_count);
    return result;
  }
  platform.start(/*tick_ms=*/1);

  net::EventLoop client_loop;
  std::vector<std::unique_ptr<net::TcpTransport>> clients;
  std::vector<std::unique_ptr<daemon::FakePeer>> peers;
  for (std::size_t i = 0; i < kFleetPeers; ++i) {
    auto client = std::make_unique<net::TcpTransport>(
        client_loop, net::Role::kPeerSide, &registry);
    if (!client->dial("127.0.0.1", platform.port())) {
      std::fprintf(stderr, "error: fleet(%zu): dial %zu failed\n", shard_count,
                   i);
      return result;
    }
    peers.push_back(std::make_unique<daemon::FakePeer>(
        static_cast<bgp::AsNumber>(65010 + i), *client));
    clients.push_back(std::move(client));
  }

  const auto pump = [&] {
    client_loop.run_once(1);
    for (auto& peer : peers) peer->poll();
    for (auto& client : clients) client->sync();
  };

  const auto all_established = [&] {
    for (const auto& peer : peers) {
      if (!peer->established()) return false;
    }
    return platform.peer_count() == kFleetPeers;
  };
  for (int i = 0; i < 50000 && !all_established(); ++i) pump();
  if (!all_established()) {
    std::fprintf(stderr, "error: fleet(%zu): sessions never established\n",
                 shard_count);
    return result;
  }

  const std::uint64_t total = kFleetPeers * kFleetUpdatesPerPeer;
  const bench::Stopwatch watch;
  std::uint64_t sent_per_peer = 0;
  while (sent_per_peer < kFleetUpdatesPerPeer) {
    for (std::size_t i = 0; i < kFleetPeers; ++i) {
      peers[i]->send_synthetic_burst(
          kBatch, (10u << 24) | (static_cast<std::uint32_t>(i) << 16) |
                      (static_cast<std::uint32_t>(sent_per_peer / kBatch)
                       << 8));
    }
    sent_per_peer += kBatch;
    // Same backpressure discipline as the single-session run: drain before
    // the next burst so socket buffers bound memory, not the batch count.
    int guard = 0;
    while (platform.stored_updates() < kFleetPeers * sent_per_peer &&
           ++guard < 200000) {
      pump();
    }
  }
  int guard = 0;
  while (platform.stored_updates() < total && ++guard < 200000) pump();
  result.elapsed_s = watch.seconds();

  result.updates = platform.stored_updates();
  result.msgs_per_sec = static_cast<double>(result.updates) / result.elapsed_s;
  for (std::size_t shard = 0; shard < platform.shard_count(); ++shard) {
    const std::size_t stored = platform.with_shard(
        shard, [](collect::Platform& p) { return p.store().stored(); });
    result.per_shard_msgs_per_sec.push_back(static_cast<double>(stored) /
                                            result.elapsed_s);
  }
  platform.stop();
  result.ok = result.updates >= total;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) strict = true;
  }
  bench::header("Networking layer: loopback TCP session throughput",
                "§8 daemon ingest over real sockets (Table 1 context)");

  net::EventLoop loop;
  metrics::Registry registry;
  std::unique_ptr<net::TcpTransport> server;
  std::unique_ptr<daemon::BgpDaemon> bgp_daemon;
  net::TcpListener listener(loop, &registry);
  if (!listener.listen("127.0.0.1", 0,
                       [&](int fd, std::string, std::uint16_t) {
                         server = std::make_unique<net::TcpTransport>(
                             loop, net::Role::kDaemonSide, &registry);
                         server->adopt(fd);
                         bgp_daemon = std::make_unique<daemon::BgpDaemon>(
                             1, 65000, *server, nullptr, nullptr, &registry);
                         bgp_daemon->start(1);
                       })) {
    std::fprintf(stderr, "error: cannot bind a loopback listener\n");
    return 1;
  }
  net::TcpTransport client(loop, net::Role::kPeerSide, &registry);
  if (!client.dial("127.0.0.1", listener.port())) {
    std::fprintf(stderr, "error: cannot dial the loopback listener\n");
    return 1;
  }
  daemon::FakePeer peer(65010, client);

  const auto pump = [&] {
    loop.run_once(1);
    if (bgp_daemon) bgp_daemon->poll(1);
    peer.poll();
    client.sync();
    if (server) server->sync();
  };

  for (int i = 0; i < 5000; ++i) {
    if (bgp_daemon &&
        bgp_daemon->state() == daemon::SessionState::kEstablished &&
        peer.established()) {
      break;
    }
    pump();
  }
  if (!bgp_daemon ||
      bgp_daemon->state() != daemon::SessionState::kEstablished) {
    std::fprintf(stderr, "error: session never established over loopback\n");
    return 1;
  }

  const std::uint64_t bytes_before =
      registry.counter_total("gill_net_bytes_read_total");
  const bench::Stopwatch watch;
  std::uint64_t sent = 0;
  while (sent < kTotalUpdates) {
    peer.send_synthetic_burst(kBatch, (10u << 24) | ((sent / kBatch) << 8));
    sent += kBatch;
    // Drain before the next burst so the socket buffer bounds memory, not
    // the batch count (this is the backpressure path a slow peer hits).
    int guard = 0;
    while (bgp_daemon->stats().updates_received < sent && ++guard < 100000) {
      pump();
    }
  }
  const double seconds = watch.seconds();
  const std::uint64_t received = bgp_daemon->stats().updates_received;
  const std::uint64_t bytes =
      registry.counter_total("gill_net_bytes_read_total") - bytes_before;
  const double msgs_per_sec = static_cast<double>(received) / seconds;
  const double bytes_per_sec = static_cast<double>(bytes) / seconds;

  bench::row({"metric", "value"}, 24);
  bench::row({"updates_decoded", bench::num(static_cast<double>(received), 0)},
             24);
  bench::row({"socket_bytes", bench::num(static_cast<double>(bytes), 0)}, 24);
  bench::row({"elapsed_s", bench::num(seconds, 3)}, 24);
  bench::row({"msgs_per_sec", bench::num(msgs_per_sec, 0)}, 24);
  bench::row({"bytes_per_sec", bench::num(bytes_per_sec, 0)}, 24);

  // --- sharded-fleet runs (DESIGN.md §14) ----------------------------------
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const bool scaling_enforceable = hw_threads >= 4;
  bench::note("fleet: " + std::to_string(kFleetPeers) + " peers x " +
              std::to_string(kFleetUpdatesPerPeer) +
              " updates across 1/2/4 ingest shards");
  std::vector<FleetResult> fleet;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    FleetResult run = run_fleet(shards);
    if (!run.ok) {
      std::fprintf(stderr, "FAIL: fleet(%zu) lost updates (%llu stored)\n",
                   shards, static_cast<unsigned long long>(run.updates));
      return 1;
    }
    bench::row({"fleet_shards_" + std::to_string(shards) + "_msgs_per_sec",
                bench::num(run.msgs_per_sec, 0)},
               32);
    fleet.push_back(std::move(run));
  }
  const double scaling_x4 =
      fleet.front().msgs_per_sec > 0
          ? fleet.back().msgs_per_sec / fleet.front().msgs_per_sec
          : 0;
  bench::row({"fleet_scaling_x4", bench::num(scaling_x4, 2)}, 32);
  if (!scaling_enforceable) {
    bench::note("scaling floor informational: " + std::to_string(hw_threads) +
                " hardware thread(s) < 4");
  }

  std::string json = "{\"bench\":\"net_throughput\",";
  json += "\"updates\":" + std::to_string(received) + ",";
  json += "\"socket_bytes\":" + std::to_string(bytes) + ",";
  json += "\"elapsed_s\":" + json_number(seconds) + ",";
  json += "\"msgs_per_sec\":" + json_number(msgs_per_sec) + ",";
  json += "\"bytes_per_sec\":" + json_number(bytes_per_sec) + ",";
  json += "\"strict_msgs_per_sec_floor\":" +
          json_number(kStrictMsgsPerSecFloor) + ",";
  json += "\"fleet\":[";
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const FleetResult& run = fleet[i];
    if (i != 0) json += ",";
    json += "{\"shards\":" + std::to_string(run.shards) + ",";
    json += "\"peers\":" + std::to_string(kFleetPeers) + ",";
    json += "\"updates\":" + std::to_string(run.updates) + ",";
    json += "\"elapsed_s\":" + json_number(run.elapsed_s) + ",";
    json += "\"msgs_per_sec\":" + json_number(run.msgs_per_sec) + ",";
    json += "\"per_shard_msgs_per_sec\":[";
    for (std::size_t shard = 0; shard < run.per_shard_msgs_per_sec.size();
         ++shard) {
      if (shard != 0) json += ",";
      json += json_number(run.per_shard_msgs_per_sec[shard]);
    }
    json += "]}";
  }
  json += "],";
  json += "\"fleet_scaling_x4\":" + json_number(scaling_x4) + ",";
  json += "\"strict_fleet_scaling_floor\":" +
          json_number(kStrictFleetScalingFloor) + ",";
  json += "\"fleet_scaling_enforced\":";
  json += (strict && scaling_enforceable) ? "true" : "false";
  json += "}\n";
  std::FILE* out = std::fopen("BENCH_net.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    bench::note("wrote BENCH_net.json");
  } else {
    std::fprintf(stderr, "error: cannot write BENCH_net.json\n");
    return 1;
  }

  if (received < kTotalUpdates) {
    std::fprintf(stderr, "FAIL: only %llu of %llu updates arrived\n",
                 static_cast<unsigned long long>(received),
                 static_cast<unsigned long long>(kTotalUpdates));
    return 1;
  }
  if (strict && msgs_per_sec < kStrictMsgsPerSecFloor) {
    std::fprintf(stderr, "FAIL: %.0f msgs/sec is below the %.0f floor\n",
                 msgs_per_sec, kStrictMsgsPerSecFloor);
    return 1;
  }
  if (strict && scaling_enforceable && scaling_x4 < kStrictFleetScalingFloor) {
    std::fprintf(stderr,
                 "FAIL: 4-shard aggregate scaled %.2fx over 1 shard, below "
                 "the %.2fx floor\n",
                 scaling_x4, kStrictFleetScalingFloor);
    return 1;
  }
  return 0;
}
