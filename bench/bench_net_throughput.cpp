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
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "daemon/daemon.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"

namespace {

using namespace gill;

constexpr std::uint64_t kTotalUpdates = 100000;
constexpr std::uint64_t kBatch = 500;  // one send_synthetic_burst per batch
constexpr double kStrictMsgsPerSecFloor = 2000.0;

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  return buffer;
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

  std::string json = "{\"bench\":\"net_throughput\",";
  json += "\"updates\":" + std::to_string(received) + ",";
  json += "\"socket_bytes\":" + std::to_string(bytes) + ",";
  json += "\"elapsed_s\":" + json_number(seconds) + ",";
  json += "\"msgs_per_sec\":" + json_number(msgs_per_sec) + ",";
  json += "\"bytes_per_sec\":" + json_number(bytes_per_sec) + ",";
  json += "\"strict_msgs_per_sec_floor\":" +
          json_number(kStrictMsgsPerSecFloor) + "}\n";
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
  return 0;
}
