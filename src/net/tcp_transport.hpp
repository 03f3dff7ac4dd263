// Real-socket endpoints for the BGP session layer: TcpTransport implements
// the daemon::Transport interface over a non-blocking TCP socket on an
// EventLoop, and TcpListener accepts inbound sessions (the paper's §8
// collector listens; routers dial in).
//
// Orientation. The in-memory Transport is a duplex pipe with both ends in
// one process; a socket replaces exactly ONE side of that pipe. A
// kDaemonSide transport backs a local BgpDaemon whose remote peer lives
// across the socket: inbound socket bytes land in `to_daemon`, and
// write_to_peer() sends to the socket. A kPeerSide transport is the mirror
// (a local FakePeer / load generator talking to a remote daemon): inbound
// bytes land in `to_peer`, write_to_daemon() sends. Either way the unused
// queue of the base class doubles as the outbound backlog, so backpressure
// is visible through ByteQueue::size() and no bytes are ever dropped by a
// short write.
//
// Fault composition. FaultyTransport (PR 1) stays a pure in-memory
// decorator: set_overlay(faulty) re-routes the socket's byte flow through
// it — inbound chunks enter via the overlay's write_to_*() hooks (faults
// applied per chunk), and the flusher drains the overlay's outbound queue
// into the socket. The daemon binds the overlay; the chaos machinery works
// over real sockets unchanged. Overlay resets are *logical*: the TCP
// connection stays up while the overlay simulates the reset, exactly like
// the in-memory transport did.
//
// Close semantics. A peer's orderly shutdown (recv() == 0, i.e. FIN /
// half-close) and a hard reset (ECONNRESET & friends) both end the
// session: the fd is closed and the endpoint transport is disconnected,
// which bumps the epoch the daemon FSM watches. The inbound hook runs over
// the bytes read in the same pass first, so what a peer sent right before
// it closed is decoded, not dropped with the queue. Graceful local
// teardown is the daemon's NOTIFICATION followed by disconnect(), which
// flushes nothing further and closes the socket.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "daemon/daemon.hpp"
#include "metrics/metrics.hpp"
#include "net/event_loop.hpp"
#include "net/overload.hpp"

namespace gill::net {

/// Which end of the BGP conversation lives on this side of the socket.
enum class Role : std::uint8_t {
  kDaemonSide,  // local BgpDaemon, remote router
  kPeerSide,    // local FakePeer / generator, remote daemon
};

class TcpTransport : public daemon::Transport {
 public:
  /// `registry` hosts the gill_net_* byte/connection counters; when null
  /// they land in metrics::default_registry().
  explicit TcpTransport(EventLoop& loop, Role role = Role::kDaemonSide,
                        metrics::Registry* registry = nullptr);
  ~TcpTransport() override;

  /// Starts a non-blocking connect to `host:port` (the handshake completes
  /// on the loop; writes issued meanwhile are backlogged and flushed on
  /// connect completion). `host` may be an IPv4 literal, an IPv6 literal,
  /// or a bracketed IPv6 literal ("[::1]"). Returns false when the address
  /// cannot be parsed or the socket cannot be created; a refused/failed
  /// connect surfaces later as a disconnect.
  bool dial(const std::string& host, std::uint16_t port);

  /// Takes ownership of an already-connected socket (listener accept).
  /// Adopted sessions cannot re-dial: the remote end re-establishes.
  bool adopt(int fd);

  /// Routes the socket's byte flow through `overlay` (typically a
  /// FaultyTransport) instead of this object's own queues. The daemon /
  /// peer must then be bound to the overlay, not to this transport. Call
  /// before traffic flows.
  void set_overlay(daemon::Transport& overlay) { endpoint_ = &overlay; }

  /// Housekeeping for state changes the transport cannot observe as they
  /// happen: drains the (overlay's) outbound backlog, closes the fd after
  /// an endpoint-initiated disconnect, and re-dials when the endpoint was
  /// reconnected while the socket was gone. Drivers call this once per
  /// step (Platform::step() does for its sessions and feeds); with no
  /// overlay and no pending backlog it is a no-op.
  void sync() override;

  // --- daemon::Transport ----------------------------------------------------
  void write_to_peer(std::span<const std::uint8_t> message) override;
  void write_to_daemon(std::span<const std::uint8_t> message) override;
  /// Daemon-initiated teardown: closes the socket, then disconnects the
  /// in-memory pipe (epoch bump).
  void disconnect() override;
  /// Re-opens the session: re-dials the last dialed address (no-op for
  /// adopted sockets, which stay closed until the remote re-dials us).
  void reconnect() override;

  bool socket_open() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  /// True once the non-blocking connect handshake finished.
  bool handshake_done() const noexcept { return connect_done_; }
  /// Bytes accepted by write_to_*() but not yet written to the socket.
  std::size_t backlog_bytes() const noexcept { return outbound().size(); }

  /// Overload control (DESIGN.md §11): a byte-rate token bucket and/or an
  /// inbound-queue watermark. When either trips, EPOLLIN is disarmed — the
  /// kernel receive window fills and the peer gets real TCP backpressure.
  /// sync() re-arms reads once the bucket refills and the session layer
  /// has drained the queue below the low watermark.
  void set_ingest_limits(const IngestLimits& limits);
  bool reads_paused() const noexcept { return reads_paused_; }
  /// Bytes read off the socket but not yet consumed by the session layer.
  std::size_t inbound_queue_bytes() const noexcept { return inbound().size(); }

  /// Decode on arrival: `hook` runs on the loop thread right after a read
  /// has queued bytes (a readable event, or sync() resuming a paused
  /// socket), so the session layer consumes them now instead of on its
  /// next tick. When the hook has drained a paused queue below the low
  /// watermark, reads resume at once; the kernel re-reports the
  /// still-readable socket, so the rest is read (and the hook runs again)
  /// on the loop's next pass, after the other ready sessions. The hook
  /// must not destroy the transport. Without a hook, inbound bytes wait
  /// for the owner's poll.
  void set_on_inbound(std::function<void()> hook) {
    on_inbound_ = std::move(hook);
  }

 private:
  void register_fd();
  void on_event(std::uint32_t events);
  /// Reads until EAGAIN, a pause or the end of the stream, runs the
  /// inbound hook over what it read, then closes the socket if the peer
  /// ended the stream (FIN or error).
  void read_inbound();
  void flush_outbound();
  /// Closes the fd and, when `and_endpoint`, disconnects the endpoint
  /// transport so its epoch bump reaches the session FSM.
  void close_socket(bool and_endpoint);
  daemon::ByteQueue& outbound() noexcept {
    return role_ == Role::kDaemonSide ? endpoint_->to_peer
                                      : endpoint_->to_daemon;
  }
  const daemon::ByteQueue& outbound() const noexcept {
    return role_ == Role::kDaemonSide ? endpoint_->to_peer
                                      : endpoint_->to_daemon;
  }
  const daemon::ByteQueue& inbound() const noexcept {
    return role_ == Role::kDaemonSide ? endpoint_->to_daemon
                                      : endpoint_->to_peer;
  }
  void deliver_inbound(std::span<const std::uint8_t> chunk);
  /// Charges `chunk` bytes to the ingest bucket and checks the watermark;
  /// returns true when reads just paused (caller must stop draining).
  bool maybe_pause_reads(std::size_t chunk);
  /// True while reads are paused and the pause conditions have cleared
  /// (bucket out of debt, queue at or below the low watermark).
  bool can_resume_reads();
  /// Re-arms EPOLLIN (EPOLL_CTL_MOD re-reports a still-readable socket).
  void resume_reads();
  /// Resumes when the pause conditions have cleared, then drains at once
  /// so the resume does not depend on that re-report.
  void maybe_resume_reads();
  /// Runs the inbound hook over freshly queued bytes, then resumes reads
  /// the hook's consumption unpaused.
  void consume_inbound();

  EventLoop* loop_;
  Role role_;
  daemon::Transport* endpoint_ = this;  // overlay when composed with faults
  int fd_ = -1;
  bool connect_done_ = false;  // non-blocking connect still in flight when false
  bool want_write_ = false;    // EPOLLOUT armed
  bool can_redial_ = false;
  std::string redial_ip_;
  std::uint16_t redial_port_ = 0;
  IngestLimits limits_;
  TokenBucket ingest_bucket_;
  bool reads_paused_ = false;
  std::function<void()> on_inbound_;
  metrics::Counter& bytes_read_;
  metrics::Counter& bytes_written_;
  metrics::Counter& connects_;
  metrics::Counter& socket_errors_;
  metrics::Counter& remote_closes_;
  metrics::Counter& read_pauses_;
  metrics::Counter& read_resumes_;
  metrics::Gauge& paused_sessions_;
};

/// Accepts inbound BGP/BMP connections and hands the raw fds to the
/// owner's callback (which typically wraps them in a TcpTransport and
/// registers the session with the Platform).
class TcpListener {
 public:
  /// (fd, peer_ip, peer_port); the callback owns the fd.
  using AcceptCallback =
      std::function<void(int fd, std::string peer_ip, std::uint16_t peer_port)>;

  explicit TcpListener(EventLoop& loop,
                       metrics::Registry* registry = nullptr);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds `host:port` (port 0 picks an ephemeral port, see port()) and
  /// starts accepting. `host` may be an IPv4 literal, an IPv6 literal, or
  /// a bracketed IPv6 literal ("[::1]"); v6 binds accept v4-mapped
  /// connections too (IPV6_V6ONLY off). Returns false on bind/listen
  /// failure.
  bool listen(const std::string& host, std::uint16_t port,
              AcceptCallback on_accept, int backlog = 128);
  void close();

  bool listening() const noexcept { return fd_ >= 0; }
  /// The bound port (resolves ephemeral binds).
  std::uint16_t port() const noexcept { return port_; }
  std::size_t accepted() const noexcept {
    return static_cast<std::size_t>(accepts_.value());
  }

 private:
  void on_readable();

  EventLoop* loop_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  AcceptCallback on_accept_;
  metrics::Counter& accepts_;
  metrics::Counter& accept_errors_;
};

}  // namespace gill::net
