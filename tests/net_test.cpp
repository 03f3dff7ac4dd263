// The networking layer: epoll event loop (timers + fd dispatch), TCP
// transports carrying real BGP sessions over loopback sockets into the
// Platform, fault-overlay composition, close semantics (half-close and
// hard reset), and the HTTP operator plane (/metrics, /healthz).
//
// Every test binds 127.0.0.1 port 0 (ephemeral) and drives both ends of
// the connection from ONE event loop — the tests are single-threaded,
// deterministic, and sanitizer-friendly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "collector/platform.hpp"
#include "daemon/daemon.hpp"
#include "daemon/faults.hpp"
#include "net/event_loop.hpp"
#include "net/http_endpoint.hpp"
#include "net/tcp_transport.hpp"
#include "test_util.hpp"
#include "wire/messages.hpp"

namespace gill::net {
namespace {

using daemon::SessionState;
using test::pfx;
using test::raw_client;

constexpr bgp::Timestamp kNow = 1000;  // fixed logical time: no hold expiry

/// Spins the loop (short waits) until `done` returns true or `iterations`
/// passes elapse, running `step` between waits to pump the session layers.
template <typename Done, typename Step>
bool drive(EventLoop& loop, int iterations, Done done, Step step) {
  for (int i = 0; i < iterations; ++i) {
    loop.run_once(2);
    step();
    if (done()) return true;
  }
  return done();
}

/// Blocking-style HTTP exchange over a non-blocking socket: sends
/// `request`, spins the loop so the server can respond, and returns the
/// full response (the server closes after one response).
std::string http_exchange(EventLoop& loop, std::uint16_t port,
                          const std::string& request) {
  const int fd = raw_client(port);
  std::string response;
  std::size_t sent = 0;
  bool closed = false;
  for (int i = 0; i < 3000 && !closed; ++i) {
    loop.run_once(1);
    if (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n > 0) {
        response.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) closed = true;  // response complete
      break;
    }
  }
  ::close(fd);
  return response;
}

// ---------------------------------------------------------------------------
// EventLoop: timer wheel and fd dispatch.
// ---------------------------------------------------------------------------

TEST(EventLoop, OneShotTimerFiresOnce) {
  EventLoop loop(1);
  int fired = 0;
  loop.call_after(10, [&] { ++fired; });
  EXPECT_EQ(loop.pending_timers(), 1u);
  while (loop.now_ms() < 60) loop.run_once(2);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, RecurringTimerRepeatsUntilCancelled) {
  EventLoop loop(1);
  int fired = 0;
  EventLoop::TimerId id = 0;
  id = loop.call_every(5, [&] {
    if (++fired == 3) loop.cancel(id);
  });
  while (loop.now_ms() < 100) loop.run_once(2);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, DeadlineBeyondOneWheelRotationStillFires) {
  // 256 slots at 1 ms granularity: a 300 ms deadline wraps the wheel.
  EventLoop loop(1);
  bool fired = false;
  loop.call_after(300, [&] { fired = true; });
  while (loop.now_ms() < 280) loop.run_once(5);
  EXPECT_FALSE(fired);  // not early
  while (loop.now_ms() < 400 && !fired) loop.run_once(5);
  EXPECT_TRUE(fired);
}

TEST(EventLoop, FdReadableDispatchAndSelfRemoval) {
  EventLoop loop(1);
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  int dispatched = 0;
  ASSERT_TRUE(loop.add(fds[0], kReadable, [&](std::uint32_t events) {
    EXPECT_TRUE(events & kReadable);
    char buffer[16];
    while (::read(fds[0], buffer, sizeof buffer) > 0) {
    }
    if (++dispatched == 2) loop.remove(fds[0]);  // safe mid-dispatch
  }));
  EXPECT_TRUE(loop.watched(fds[0]));
  for (int round = 0; round < 2; ++round) {
    ASSERT_EQ(::write(fds[1], "x", 1), 1);
    while (dispatched == round) loop.run_once(5);
  }
  EXPECT_EQ(dispatched, 2);
  EXPECT_FALSE(loop.watched(fds[0]));
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// ByteQueue: the zero-copy partial-drain path socket senders use.
// ---------------------------------------------------------------------------

TEST(ByteQueue, PeekConsumeDrainsPartially) {
  daemon::ByteQueue queue;
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  queue.write(data);
  auto view = queue.peek();
  ASSERT_EQ(view.size(), 5u);
  EXPECT_EQ(view[0], 1);
  queue.consume(2);  // a short send(): tail stays queued
  view = queue.peek();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 3);
  queue.consume(100);  // clamped
  EXPECT_TRUE(queue.empty());
  queue.write(data);  // reusable after full drain
  EXPECT_EQ(queue.size(), 5u);
}

// ---------------------------------------------------------------------------
// A Platform peering over real loopback sockets.
// ---------------------------------------------------------------------------

/// One Platform listening on an ephemeral loopback port, with the accept
/// path of gill_collectord: every inbound socket becomes a TcpTransport
/// handed to add_remote_peer.
struct ServerHarness {
  EventLoop loop;
  metrics::Registry registry;
  collect::Platform platform;
  TcpListener listener{loop, &registry};
  std::map<bgp::VpId, TcpTransport*> transports;
  std::vector<bgp::VpId> accepted;

  explicit ServerHarness(const std::string& host = "127.0.0.1")
      : platform(make_config()) {
    EXPECT_TRUE(listener.listen(
        host, 0, [this](int fd, std::string, std::uint16_t) {
          auto transport =
              std::make_unique<TcpTransport>(loop, Role::kDaemonSide,
                                             &registry);
          auto* raw = transport.get();
          transport->adopt(fd);
          const bgp::VpId vp =
              platform.add_remote_peer(0, kNow, std::move(transport));
          // §8: track the session's table (RIB snapshots every 8 hours).
          platform.daemon_mut(vp).enable_rib_dumps(8 * 3600);
          transports[vp] = raw;
          accepted.push_back(vp);
        }));
  }

  collect::PlatformConfig make_config() {
    collect::PlatformConfig config;
    config.registry = &registry;
    return config;
  }

  void pump() { platform.step(kNow); }
};

/// A FakePeer dialing the harness over a peer-side TcpTransport: the
/// scripted router from daemon_test, now behind a real socket.
struct TcpFakePeer {
  TcpTransport transport;
  daemon::FakePeer peer;

  TcpFakePeer(ServerHarness& server, bgp::AsNumber as,
              const std::string& host = "127.0.0.1")
      : transport(server.loop, Role::kPeerSide, &server.registry),
        peer(as, transport) {
    EXPECT_TRUE(transport.dial(host, server.listener.port()));
  }

  void pump() {
    peer.poll();
    transport.sync();
  }
};

TEST(TcpSession, LoopbackHandshakeReachesEstablished) {
  ServerHarness server;
  TcpFakePeer client(server, 65010);
  const bool established = drive(
      server.loop, 400,
      [&] {
        return server.accepted.size() == 1 &&
               server.platform.daemon_of(server.accepted[0]).state() ==
                   SessionState::kEstablished &&
               client.peer.established();
      },
      [&] {
        server.pump();
        client.pump();
      });
  ASSERT_TRUE(established);
  const bgp::VpId vp = server.accepted[0];
  // The AS was learned from the peer's OPEN, not configured.
  EXPECT_EQ(server.platform.daemon_of(vp).peer_as(), 65010u);
  EXPECT_FALSE(server.platform.has_remote(vp));  // no local FakePeer
  EXPECT_EQ(server.listener.accepted(), 1u);
  EXPECT_TRUE(client.transport.handshake_done());
  EXPECT_GT(server.registry.counter_total("gill_net_bytes_read_total"), 0u);
  EXPECT_GT(server.registry.counter_total("gill_net_bytes_written_total"), 0u);
}

TEST(TcpSession, UpdatesOverTcpMatchInMemoryRib) {
  // The same update stream through (a) a loopback TCP session and (b) the
  // in-memory transport must land in identical RIBs.
  std::vector<bgp::Update> updates;
  for (int i = 0; i < 16; ++i) {
    bgp::Update update;
    update.time = kNow;
    update.prefix = pfx(("10.1." + std::to_string(i) + ".0/24").c_str());
    update.path = bgp::AsPath{65010, 65020, static_cast<bgp::AsNumber>(i)};
    updates.push_back(update);
  }
  bgp::Update withdrawal;
  withdrawal.time = kNow;
  withdrawal.prefix = pfx("10.1.3.0/24");
  withdrawal.withdrawal = true;

  // (a) Over TCP.
  ServerHarness server;
  TcpFakePeer client(server, 65010);
  ASSERT_TRUE(drive(
      server.loop, 400,
      [&] {
        return !server.accepted.empty() &&
               server.platform.daemon_of(server.accepted[0]).state() ==
                   SessionState::kEstablished &&
               client.peer.established();
      },
      [&] {
        server.pump();
        client.pump();
      }));
  for (const auto& update : updates) client.peer.send_update(update);
  client.peer.send_update(withdrawal);
  const bgp::VpId vp = server.accepted[0];
  ASSERT_TRUE(drive(
      server.loop, 400,
      [&] { return server.platform.daemon_of(vp).rib().size() == 15; },
      [&] {
        server.pump();
        client.pump();
      }));

  // (b) In memory (the PR-0 baseline path).
  collect::PlatformConfig config;
  collect::Platform baseline(config);
  const bgp::VpId base_vp = baseline.add_peer(65010, kNow);
  baseline.daemon_mut(base_vp).enable_rib_dumps(8 * 3600);
  baseline.step(kNow);
  for (const auto& update : updates) baseline.remote(base_vp).send_update(update);
  baseline.remote(base_vp).send_update(withdrawal);
  baseline.step(kNow);

  EXPECT_EQ(server.platform.daemon_of(vp).rib().routes(),
            baseline.daemon_of(base_vp).rib().routes());
  EXPECT_EQ(server.platform.daemon_of(vp).stats().updates_received,
            baseline.daemon_of(base_vp).stats().updates_received);
}

TEST(TcpSession, EightConcurrentPeersAllEstablishAndFeed) {
  ServerHarness server;
  std::vector<std::unique_ptr<TcpFakePeer>> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<TcpFakePeer>(
        server, static_cast<bgp::AsNumber>(65100 + i)));
  }
  const auto all_established = [&] {
    if (server.accepted.size() != 8) return false;
    for (const bgp::VpId vp : server.accepted) {
      if (server.platform.daemon_of(vp).state() != SessionState::kEstablished)
        return false;
    }
    for (const auto& client : clients)
      if (!client->peer.established()) return false;
    return true;
  };
  ASSERT_TRUE(drive(server.loop, 800, all_established, [&] {
    server.pump();
    for (auto& client : clients) client->pump();
  }));
  EXPECT_EQ(server.platform.peer_count(), 8u);
  EXPECT_EQ(server.listener.accepted(), 8u);

  // Every peer announces a distinct block; every RIB ends with 10 routes.
  for (int i = 0; i < 8; ++i) {
    clients[static_cast<std::size_t>(i)]->peer.send_synthetic_burst(
        10, (10u << 24) | (static_cast<std::uint32_t>(i + 1) << 16));
  }
  const auto all_fed = [&] {
    for (const bgp::VpId vp : server.accepted)
      if (server.platform.daemon_of(vp).rib().size() != 10) return false;
    return true;
  };
  EXPECT_TRUE(drive(server.loop, 800, all_fed, [&] {
    server.pump();
    for (auto& client : clients) client->pump();
  }));

  // The learned AS set matches the dialing population.
  std::vector<bgp::AsNumber> learned;
  for (const auto& entry : server.platform.health_snapshot().peers)
    learned.push_back(entry.as);
  std::sort(learned.begin(), learned.end());
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(learned[static_cast<std::size_t>(i)],
              static_cast<bgp::AsNumber>(65100 + i));
}

TEST(TcpSession, Ipv6LoopbackHandshakeReachesEstablished) {
  // The same collector accept path over AF_INET6: a bracketed bind
  // ("[::1]") and a bare-literal dial ("::1") both parse.
  ServerHarness server("[::1]");
  TcpFakePeer client(server, 65010, "::1");
  const bool established = drive(
      server.loop, 400,
      [&] {
        return server.accepted.size() == 1 &&
               server.platform.daemon_of(server.accepted[0]).state() ==
                   SessionState::kEstablished &&
               client.peer.established();
      },
      [&] {
        server.pump();
        client.pump();
      });
  ASSERT_TRUE(established);
  EXPECT_EQ(server.platform.daemon_of(server.accepted[0]).peer_as(), 65010u);
  EXPECT_EQ(server.listener.accepted(), 1u);
}

// ---------------------------------------------------------------------------
// Outbound peerings (gill-collectord --dial): the collector initiates the
// TCP connection and, unlike accepted sessions, re-dials after a teardown.
// ---------------------------------------------------------------------------

/// A scripted remote *router* that accepts inbound connections: each
/// accepted socket becomes a kPeerSide transport driving a FakePeer — the
/// far end of a --dial peering. A fresh FakePeer per connection mirrors a
/// router restart (new TCP session, new handshake).
struct FakeRouter {
  EventLoop& loop;
  metrics::Registry& registry;
  bgp::AsNumber as;
  TcpListener listener;
  std::unique_ptr<TcpTransport> transport;
  std::unique_ptr<daemon::FakePeer> peer;
  std::size_t connections = 0;

  FakeRouter(EventLoop& loop, metrics::Registry& registry, bgp::AsNumber as)
      : loop(loop), registry(registry), as(as), listener(loop, &registry) {
    EXPECT_TRUE(listener.listen(
        "127.0.0.1", 0, [this](int fd, std::string, std::uint16_t) {
          transport = std::make_unique<TcpTransport>(
              this->loop, Role::kPeerSide, &this->registry);
          transport->adopt(fd);
          peer = std::make_unique<daemon::FakePeer>(this->as, *transport);
          ++connections;
        }));
  }

  void pump() {
    if (peer) peer->poll();
    if (transport) transport->sync();
  }

  /// The router dies: its side of the session closes (FIN to the dialer).
  void restart() {
    peer.reset();
    transport.reset();  // closes the fd
  }
};

TEST(TcpSession, DialOutEstablishesAndRedialsAfterRouterRestart) {
  EventLoop loop;
  metrics::Registry registry;
  FakeRouter router(loop, registry, 65033);

  collect::PlatformConfig config;
  config.registry = &registry;
  config.retry.base = 1;  // reconnect after one logical second
  collect::Platform platform(config);
  auto transport =
      std::make_unique<TcpTransport>(loop, Role::kDaemonSide, &registry);
  auto* raw = transport.get();
  ASSERT_TRUE(raw->dial("127.0.0.1", router.listener.port()));
  bgp::Timestamp now = kNow;
  const bgp::VpId vp =
      platform.add_dialed_peer(65033, now, std::move(transport));
  // Unlike an accepted peer, the dialed session owns re-establishment.
  EXPECT_TRUE(platform.daemon_of(vp).auto_reconnect());

  const auto pump = [&] {
    platform.step(now);
    router.pump();
  };
  ASSERT_TRUE(drive(
      loop, 400,
      [&] {
        return platform.daemon_of(vp).state() == SessionState::kEstablished &&
               router.peer && router.peer->established();
      },
      pump));
  EXPECT_EQ(router.connections, 1u);

  // The router restarts: our side observes the close and tears down...
  router.restart();
  ASSERT_TRUE(drive(
      loop, 400,
      [&] { return platform.daemon_of(vp).state() == SessionState::kIdle; },
      pump));
  // ...then the retry policy re-dials once the backoff elapses; the
  // router's listener hands the fresh socket to a fresh FakePeer and the
  // session re-establishes end to end.
  ASSERT_TRUE(drive(
      loop, 800,
      [&] {
        now += 1;  // logical clock: the backoff elapses as we pump
        return platform.daemon_of(vp).state() == SessionState::kEstablished &&
               router.peer && router.peer->established();
      },
      pump));
  EXPECT_EQ(router.connections, 2u);
  EXPECT_GE(platform.daemon_of(vp).stats().reconnects, 1u);
}

TEST(TcpSession, HalfCloseTearsTheSessionDown) {
  ServerHarness server;
  const int fd = raw_client(server.listener.port());
  ASSERT_TRUE(drive(
      server.loop, 400, [&] { return server.accepted.size() == 1; },
      [&] { server.pump(); }));
  const bgp::VpId vp = server.accepted[0];
  // The daemon greeted us (OPEN, OpenSent); the "router" says goodbye
  // without ever speaking BGP: FIN via shutdown(SHUT_WR).
  EXPECT_EQ(server.platform.daemon_of(vp).state(), SessionState::kOpenSent);
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  ASSERT_TRUE(drive(
      server.loop, 400,
      [&] {
        return !server.transports.at(vp)->socket_open() &&
               server.platform.daemon_of(vp).state() == SessionState::kIdle;
      },
      [&] { server.pump(); }));
  EXPECT_EQ(server.registry.counter_total("gill_net_remote_closes_total"), 1u);
  EXPECT_EQ(server.registry.counter_total("gill_net_socket_errors_total"), 0u);
  ::close(fd);
}

TEST(TcpSession, HardResetTearsTheSessionDown) {
  ServerHarness server;
  const int fd = raw_client(server.listener.port());
  ASSERT_TRUE(drive(
      server.loop, 400, [&] { return server.accepted.size() == 1; },
      [&] { server.pump(); }));
  const bgp::VpId vp = server.accepted[0];
  // SO_LINGER{on, 0} + close(): the kernel sends RST, not FIN.
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard), 0);
  ::close(fd);
  ASSERT_TRUE(drive(
      server.loop, 400,
      [&] {
        return !server.transports.at(vp)->socket_open() &&
               server.platform.daemon_of(vp).state() == SessionState::kIdle;
      },
      [&] { server.pump(); }));
  // ECONNRESET lands in the error counter, not the orderly-close one.
  EXPECT_EQ(server.registry.counter_total("gill_net_socket_errors_total"), 1u);
}

// Updates read in the same pass as the peer's FIN are decoded before the
// socket closes. Wired as the collector wires a session (the inbound hook
// polls it on arrival), with no server pass between the sends and the
// close, so the server reads the updates and the FIN together.
TEST(TcpSession, UpdatesThatArriveWithTheFinAreDecoded) {
  ServerHarness server;
  auto client = std::make_unique<TcpFakePeer>(server, 65010);
  ASSERT_TRUE(drive(
      server.loop, 400,
      [&] {
        return !server.accepted.empty() &&
               server.platform.daemon_of(server.accepted[0]).state() ==
                   SessionState::kEstablished &&
               client->peer.established();
      },
      [&] {
        server.pump();
        client->pump();
      }));
  const bgp::VpId vp = server.accepted[0];
  server.transports.at(vp)->set_on_inbound(
      [&server, vp] { server.platform.poll_peer(vp, kNow); });

  for (int i = 0; i < 20; ++i) {
    bgp::Update update;
    update.time = kNow;
    update.prefix = pfx("10.2." + std::to_string(i) + ".0/24");
    update.path = bgp::AsPath{65010, 65020};
    client->peer.send_update(update);
  }
  ASSERT_EQ(client->transport.backlog_bytes(), 0u) << "all sent before FIN";
  client.reset();  // FIN right behind the updates
  // Only the loop runs: the hook is the one place these bytes can decode.
  ASSERT_TRUE(drive(
      server.loop, 400,
      [&] { return !server.transports.at(vp)->socket_open(); }, [] {}));
  EXPECT_EQ(server.platform.daemon_of(vp).stats().updates_received, 20u);
  EXPECT_EQ(server.registry.counter_total("gill_net_remote_closes_total"), 1u);
}

TEST(TcpTransport, WritesBeforeConnectCompletionAreBacklogged) {
  EventLoop loop;
  metrics::Registry registry;
  int server_fd = -1;
  TcpListener listener(loop, &registry);
  ASSERT_TRUE(listener.listen("127.0.0.1", 0,
                              [&](int fd, std::string, std::uint16_t) {
                                server_fd = fd;
                              }));
  TcpTransport client(loop, Role::kPeerSide, &registry);
  ASSERT_TRUE(client.dial("127.0.0.1", listener.port()));
  // Queue bytes while the non-blocking connect is still in flight.
  const std::vector<std::uint8_t> hello{'h', 'e', 'l', 'l', 'o'};
  client.write_to_daemon(hello);
  std::string received;
  ASSERT_TRUE(drive(
      loop, 400, [&] { return received.size() == hello.size(); },
      [&] {
        client.sync();
        if (server_fd >= 0) {
          char buffer[64];
          const ssize_t n = ::recv(server_fd, buffer, sizeof buffer,
                                   MSG_DONTWAIT);
          if (n > 0) received.append(buffer, static_cast<std::size_t>(n));
        }
      }));
  EXPECT_EQ(received, "hello");
  EXPECT_TRUE(client.handshake_done());
  EXPECT_EQ(client.backlog_bytes(), 0u);
  EXPECT_EQ(registry.counter_total("gill_net_connects_total"), 1u);
  if (server_fd >= 0) ::close(server_fd);
}

TEST(TcpSession, FaultyOverlayComposesOverTcp) {
  // FaultyTransport (PR 1) stays a pure in-memory decorator: the socket
  // pumps bytes through it via set_overlay, the daemon binds the overlay.
  EventLoop loop;
  metrics::Registry registry;
  std::unique_ptr<TcpTransport> server;
  std::unique_ptr<daemon::FaultyTransport> faulty;
  std::unique_ptr<daemon::BgpDaemon> bgp_daemon;
  TcpListener listener(loop, &registry);
  ASSERT_TRUE(listener.listen(
      "127.0.0.1", 0, [&](int fd, std::string, std::uint16_t) {
        server = std::make_unique<TcpTransport>(loop, Role::kDaemonSide,
                                                &registry);
        server->adopt(fd);
        faulty = std::make_unique<daemon::FaultyTransport>(
            daemon::FaultProfile{});  // no faults: pure pass-through proof
        server->set_overlay(*faulty);
        bgp_daemon = std::make_unique<daemon::BgpDaemon>(
            7, 65000, *faulty, nullptr, nullptr, &registry);
        bgp_daemon->start(kNow);
      }));
  TcpTransport client(loop, Role::kPeerSide, &registry);
  ASSERT_TRUE(client.dial("127.0.0.1", listener.port()));
  daemon::FakePeer peer(65020, client);
  ASSERT_TRUE(drive(
      loop, 400,
      [&] {
        return bgp_daemon &&
               bgp_daemon->state() == SessionState::kEstablished &&
               peer.established();
      },
      [&] {
        if (bgp_daemon) {
          bgp_daemon->poll(kNow);
          bgp_daemon->tick(kNow);
          server->sync();
        }
        peer.poll();
        client.sync();
      }));
  // Every byte crossed the fault layer.
  EXPECT_GT(faulty->fault_stats().delivered, 0u);
  EXPECT_EQ(bgp_daemon->peer_as(), 65020u);
}

// TCP is a byte stream: segment boundaries land anywhere, including inside
// the 19-byte header or the GR capability. The session must reassemble the
// OPEN/KEEPALIVE/UPDATE sequence no matter where the stream is cut.
TEST(TcpSession, FramesSplitAtEverySegmentBoundaryStillParse) {
  wire::OpenMessage open;
  open.as = 65010;
  open.hold_time = 90;
  open.bgp_id = 0x0A000001;
  open.gr_enabled = true;  // the capability bytes sit inside the split sweep
  std::vector<std::uint8_t> stream = wire::encode(open);
  const auto keepalive = wire::encode(wire::KeepaliveMessage{});
  stream.insert(stream.end(), keepalive.begin(), keepalive.end());
  wire::UpdateMessage update;
  update.nlri = {pfx("10.9.0.0/24")};
  update.path = bgp::AsPath{65010, 65020};
  const auto update_bytes = wire::encode(update);
  stream.insert(stream.end(), update_bytes.begin(), update_bytes.end());

  ServerHarness server;
  const auto feed = [&](const std::vector<std::size_t>& cuts) {
    const int fd = raw_client(server.listener.port());
    const std::size_t sessions = server.accepted.size();
    std::size_t sent = 0;
    std::size_t cut = 0;
    const bool done = drive(
        server.loop, 2000,
        [&] {
          if (server.accepted.size() <= sessions) return false;
          const auto vp = server.accepted.back();
          return server.platform.daemon_of(vp).state() ==
                     SessionState::kEstablished &&
                 server.platform.daemon_of(vp).rib().size() == 1;
        },
        [&] {
          server.pump();
          if (sent < stream.size()) {
            const std::size_t until =
                cut < cuts.size() ? cuts[cut] : stream.size();
            const ssize_t n = ::send(fd, stream.data() + sent, until - sent,
                                     MSG_NOSIGNAL);
            if (n > 0) sent += static_cast<std::size_t>(n);
            if (sent == until) ++cut;
          }
          char sink[4096];  // drain the daemon's OPEN/KEEPALIVE/EoR
          while (::recv(fd, sink, sizeof sink, 0) > 0) {
          }
        });
    EXPECT_TRUE(done) << "cut at " << (cuts.empty() ? 0 : cuts[0]);
    if (done) {
      const auto& rib = server.platform.daemon_of(server.accepted.back()).rib();
      EXPECT_NE(rib.find(pfx("10.9.0.0/24")), nullptr);
    }
    ::close(fd);
  };

  // Two segments, cut at every byte boundary of the stream.
  for (std::size_t split = 1; split < stream.size(); ++split) {
    feed({split});
  }
  // The degenerate case: one byte per segment, every boundary at once.
  std::vector<std::size_t> all_cuts;
  for (std::size_t i = 1; i < stream.size(); ++i) all_cuts.push_back(i);
  feed(all_cuts);
}

// ---------------------------------------------------------------------------
// The HTTP operator plane.
// ---------------------------------------------------------------------------

TEST(Http, MetricsResponseIsByteIdenticalToTheRegistry) {
  EventLoop loop;
  metrics::Registry endpoint_registry;  // the server's own counters
  metrics::Registry served;             // the scraped registry
  served.counter("gill_test_requests_total", "test counter").inc(41);
  HttpEndpoint http(loop, &endpoint_registry);
  http.serve_metrics(served);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));
  const std::string response = http_exchange(
      loop, http.port(), "GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(response.starts_with("HTTP/1.1 200 OK\r\n")) << response;
  EXPECT_NE(response.find(std::string("Content-Type: ") +
                          kPrometheusContentType + "\r\n"),
            std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  const auto split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  EXPECT_EQ(response.substr(split + 4), served.expose_prometheus());
  EXPECT_EQ(
      endpoint_registry.counter_total("gill_net_http_requests_total"), 1u);
}

TEST(Http, RoutesQueriesAndErrors) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  http.route("/healthz", [] {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = "{\"ok\":true}";
    return response;
  });
  ASSERT_TRUE(http.listen("127.0.0.1", 0));
  const auto healthz = http_exchange(
      loop, http.port(), "GET /healthz?verbose=1 HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(healthz.starts_with("HTTP/1.1 200 OK\r\n"));
  EXPECT_NE(healthz.find("{\"ok\":true}"), std::string::npos);
  EXPECT_NE(healthz.find("Content-Type: application/json\r\n"),
            std::string::npos);

  const auto missing = http_exchange(
      loop, http.port(), "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(missing.starts_with("HTTP/1.1 404 "));

  const auto post = http_exchange(
      loop, http.port(), "POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(post.starts_with("HTTP/1.1 405 "));

  const auto garbage = http_exchange(loop, http.port(), "NONSENSE\r\n\r\n");
  EXPECT_TRUE(garbage.starts_with("HTTP/1.1 400 "));
  EXPECT_EQ(registry.counter_total("gill_net_http_bad_requests_total"), 3u);
  EXPECT_EQ(http.open_connections(), 0u);
}

// The one-release grace window for pre-/v1 unversioned paths is over: the
// legacy spelling now 404s with the uniform error envelope while the
// canonical /v1 route keeps serving.
TEST(Http, RetiredLegacyPathAnswers404WithTheErrorEnvelope) {
  EventLoop loop;
  metrics::Registry registry;
  metrics::Registry served;
  served.counter("gill_test_requests_total", "test counter").inc(7);
  HttpEndpoint http(loop, &registry);
  http.serve_metrics(served);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));
  const std::string versioned = http_exchange(
      loop, http.port(), "GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(versioned.starts_with("HTTP/1.1 200 OK\r\n"));
  const std::string legacy = http_exchange(
      loop, http.port(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(legacy.starts_with("HTTP/1.1 404 "));
  EXPECT_NE(legacy.find("\"code\":\"not_found\""), std::string::npos);
}

// A duplicate registration is a wiring bug, never a silent overwrite.
TEST(Http, DuplicateRoutesAreRejected) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  EXPECT_TRUE(http.route("/v1/thing", [] { return HttpResponse{}; }));
  EXPECT_FALSE(http.route("/v1/thing", [] { return HttpResponse{}; }));
  EXPECT_FALSE(http.route("/v1/thing",
                          [](const HttpRequest&) { return HttpResponse{}; }));
}

// The uniform JSON error envelope, byte for byte, on every built-in error.
TEST(Http, BuiltInErrorsUseTheJsonEnvelope) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  http.route("/v1/thing", [] { return HttpResponse{}; });
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  const auto missing = http_exchange(
      loop, http.port(), "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(missing.starts_with("HTTP/1.1 404 Not Found\r\n"));
  EXPECT_NE(missing.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_TRUE(missing.ends_with(
      "{\"error\":{\"code\":\"not_found\",\"message\":\"no such route\"}}"))
      << missing;

  const auto post = http_exchange(
      loop, http.port(), "POST /v1/thing HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(post.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
  EXPECT_TRUE(post.ends_with("{\"error\":{\"code\":\"method_not_allowed\","
                             "\"message\":\"only GET is supported\"}}"))
      << post;

  const auto garbage = http_exchange(loop, http.port(), "NONSENSE\r\n\r\n");
  EXPECT_TRUE(garbage.starts_with("HTTP/1.1 400 Bad Request\r\n"));
  EXPECT_TRUE(garbage.ends_with(
      "{\"error\":{\"code\":\"bad_request\",\"message\":"
      "\"malformed request line\"}}"))
      << garbage;
}

TEST(Http, ParseU64IsStrict) {
  std::uint64_t value = 0;
  EXPECT_TRUE(parse_u64("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_FALSE(parse_u64("", &value));
  EXPECT_FALSE(parse_u64("-1", &value));
  EXPECT_FALSE(parse_u64("+1", &value));
  EXPECT_FALSE(parse_u64("1 ", &value));
  EXPECT_FALSE(parse_u64("0x10", &value));
  EXPECT_FALSE(parse_u64("18446744073709551616", &value));  // overflow
}

TEST(Http, ChunkedStreamingResponsePullsTheProducerAsTheSocketDrains) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  int pulls = 0;
  http.route("/stream", [&pulls](const HttpRequest& request) {
    EXPECT_EQ(request.path, "/stream");
    const std::string* count = request.get("chunks");
    const int total = count ? std::stoi(*count) : 0;
    HttpResponse response;
    response.producer = [&pulls, total](std::string& out) {
      if (pulls >= total) return false;
      out += "chunk-" + std::to_string(pulls++) + ";";
      return true;
    };
    return response;
  });
  ASSERT_TRUE(http.listen("127.0.0.1", 0));
  const std::string response = http_exchange(
      loop, http.port(), "GET /stream?chunks=3 HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(response.starts_with("HTTP/1.1 200 OK\r\n")) << response;
  EXPECT_NE(response.find("Transfer-Encoding: chunked\r\n"),
            std::string::npos);
  EXPECT_EQ(response.find("Content-Length:"), std::string::npos);
  // Each producer pull became one chunk; the stream ends with the
  // zero-length terminator.
  EXPECT_EQ(pulls, 3);
  EXPECT_NE(response.find("chunk-0;"), std::string::npos);
  EXPECT_NE(response.find("chunk-2;"), std::string::npos);
  EXPECT_TRUE(response.ends_with("0\r\n\r\n")) << response;
  EXPECT_EQ(http.open_connections(), 0u);
}

TEST(Http, QueryParametersArePercentDecoded) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  std::map<std::string, std::string> seen;
  http.route("/q", [&seen](const HttpRequest& request) {
    seen = request.query;
    return HttpResponse{};
  });
  ASSERT_TRUE(http.listen("127.0.0.1", 0));
  http_exchange(loop, http.port(),
                "GET /q?prefix=10.0.0.0%2F8&vp=7&flag HTTP/1.1\r\n"
                "Host: t\r\n\r\n");
  EXPECT_EQ(seen.at("prefix"), "10.0.0.0/8");
  EXPECT_EQ(seen.at("vp"), "7");
  EXPECT_EQ(seen.at("flag"), "");
}

// A client that connects and never finishes its request would otherwise
// hold a connection slot forever; the idle sweeper reclaims it.
TEST(Http, StalledRequestIsEvictedByTheIdleTimeout) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  http.set_idle_timeout_ms(80);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  const int fd = raw_client(http.port());
  const char* partial = "GET /metrics HT";  // never completes the request
  for (int i = 0; i < 50 && http.open_connections() == 0; ++i) {
    loop.run_once(2);
    ::send(fd, partial, std::strlen(partial), MSG_NOSIGNAL);
    partial = "";  // only once
  }
  ASSERT_EQ(http.open_connections(), 1u);
  const auto start = loop.now_ms();
  while (loop.now_ms() < start + 500 && http.open_connections() > 0) {
    loop.run_once(5);
  }
  EXPECT_EQ(http.open_connections(), 0u);
  EXPECT_EQ(registry.counter_total("gill_net_http_idle_evictions_total"), 1u);
  ::close(fd);
}

// A chunked-stream reader that stops reading (full socket buffer, endless
// producer) stalls the response; the sweeper drops it instead of letting
// the connection pin producer state forever.
TEST(Http, StalledChunkedReaderIsEvictedByTheIdleTimeout) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  http.set_idle_timeout_ms(80);
  http.route("/stream", [](const HttpRequest&) {
    HttpResponse response;
    response.producer = [](std::string& out) {
      out.assign(16384, 'x');  // endless: only backpressure stops it
      return true;
    };
    return response;
  });
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  const int fd = raw_client(http.port());
  const std::string request = "GET /stream HTTP/1.1\r\nHost: t\r\n\r\n";
  std::size_t sent = 0;
  for (int i = 0; i < 200 && http.open_connections() == 0; ++i) {
    loop.run_once(2);
    if (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
  }
  ASSERT_EQ(http.open_connections(), 1u);
  // Read nothing: the kernel buffers fill, the server's sends stall, and
  // from then on the connection makes no progress until it is evicted.
  const auto start = loop.now_ms();
  while (loop.now_ms() < start + 2000 && http.open_connections() > 0) {
    loop.run_once(5);
  }
  EXPECT_EQ(http.open_connections(), 0u);
  EXPECT_EQ(registry.counter_total("gill_net_http_idle_evictions_total"), 1u);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Acceptance: a live collector end to end — BGP session over TCP feeding
// the Platform, /metrics serving the session's counters live.
// ---------------------------------------------------------------------------

TEST(LiveCollector, SessionCountersAppearOnTheMetricsEndpoint) {
  ServerHarness server;
  HttpEndpoint http(server.loop, &server.registry);
  http.serve_metrics(server.registry);
  http.route("/healthz", [&server] {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = collect::to_json(server.platform.health_snapshot());
    return response;
  });
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  TcpFakePeer client(server, 65010);
  ASSERT_TRUE(drive(
      server.loop, 400,
      [&] {
        return !server.accepted.empty() &&
               server.platform.daemon_of(server.accepted[0]).state() ==
                   SessionState::kEstablished &&
               client.peer.established();
      },
      [&] {
        server.pump();
        client.pump();
      }));
  client.peer.send_synthetic_burst(25, 10u << 24);
  const bgp::VpId vp = server.accepted[0];
  ASSERT_TRUE(drive(
      server.loop, 400,
      [&] { return server.platform.daemon_of(vp).rib().size() == 25; },
      [&] {
        server.pump();
        client.pump();
      }));

  const std::string response = http_exchange(
      server.loop, http.port(), "GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_TRUE(response.starts_with("HTTP/1.1 200 OK\r\n"));
  const std::string body = response.substr(response.find("\r\n\r\n") + 4);
  // Live session and platform counters, scraped over the wire.
  EXPECT_NE(body.find("gill_daemon_messages_received_total"),
            std::string::npos);
  EXPECT_NE(body.find("gill_daemon_updates_received_total{vp=\"0\"} 25"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("gill_collector_peers 1"), std::string::npos);
  EXPECT_NE(body.find("gill_net_bytes_read_total"), std::string::npos);

  const std::string healthz = http_exchange(
      server.loop, http.port(), "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(healthz.find("\"peers\":1"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"status\":\"healthy\""), std::string::npos);
  EXPECT_NE(healthz.find("\"session\":\"Established\""), std::string::npos);
}

}  // namespace
}  // namespace gill::net
