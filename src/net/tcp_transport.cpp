#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace gill::net {

namespace {

metrics::Registry& resolve(metrics::Registry* registry) {
  return registry != nullptr ? *registry : metrics::default_registry();
}

/// Parses an IPv4 literal, an IPv6 literal, or a bracketed IPv6 literal
/// ("[::1]") into a socket address. Returns the address length, 0 on a
/// parse failure.
socklen_t fill_addr(const std::string& host, std::uint16_t port,
                    sockaddr_storage& addr) {
  addr = {};
  std::string bare = host;
  if (bare.size() >= 2 && bare.front() == '[' && bare.back() == ']') {
    bare = bare.substr(1, bare.size() - 2);
  }
  auto* v4 = reinterpret_cast<sockaddr_in*>(&addr);
  if (inet_pton(AF_INET, bare.c_str(), &v4->sin_addr) == 1) {
    v4->sin_family = AF_INET;
    v4->sin_port = htons(port);
    return sizeof(sockaddr_in);
  }
  auto* v6 = reinterpret_cast<sockaddr_in6*>(&addr);
  if (inet_pton(AF_INET6, bare.c_str(), &v6->sin6_addr) == 1) {
    v6->sin6_family = AF_INET6;
    v6->sin6_port = htons(port);
    return sizeof(sockaddr_in6);
  }
  return 0;
}

int make_tcp_socket(int family) {
  const int fd =
      ::socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd >= 0) {
    // BGP messages are small and latency-sensitive during the handshake;
    // the send path batches in the ByteQueue, so Nagle only adds delay.
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

/// Renders the peer of an accepted socket, whatever its family.
std::string peer_ip(const sockaddr_storage& addr) {
  char ip[INET6_ADDRSTRLEN] = "?";
  if (addr.ss_family == AF_INET6) {
    const auto* v6 = reinterpret_cast<const sockaddr_in6*>(&addr);
    inet_ntop(AF_INET6, &v6->sin6_addr, ip, sizeof ip);
  } else {
    const auto* v4 = reinterpret_cast<const sockaddr_in*>(&addr);
    inet_ntop(AF_INET, &v4->sin_addr, ip, sizeof ip);
  }
  return ip;
}

std::uint16_t peer_port(const sockaddr_storage& addr) {
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(EventLoop& loop, Role role,
                           metrics::Registry* registry)
    : loop_(&loop),
      role_(role),
      bytes_read_(resolve(registry).counter(
          "gill_net_bytes_read_total", "Bytes read from TCP sockets")),
      bytes_written_(resolve(registry).counter(
          "gill_net_bytes_written_total", "Bytes written to TCP sockets")),
      connects_(resolve(registry).counter(
          "gill_net_connects_total", "TCP connect handshakes completed")),
      socket_errors_(resolve(registry).counter(
          "gill_net_socket_errors_total",
          "Socket-level failures (connect errors, ECONNRESET, EPIPE, ...)")),
      remote_closes_(resolve(registry).counter(
          "gill_net_remote_closes_total",
          "Orderly remote shutdowns observed (FIN / half-close)")),
      read_pauses_(resolve(registry).counter(
          "gill_overload_read_pauses_total",
          "Times EPOLLIN was disarmed (rate ceiling or queue watermark)")),
      read_resumes_(resolve(registry).counter(
          "gill_overload_read_resumes_total",
          "Times a paused session resumed reading")),
      paused_sessions_(resolve(registry).gauge(
          "gill_overload_paused_sessions",
          "Sessions currently exerting TCP backpressure")) {}

TcpTransport::~TcpTransport() { close_socket(/*and_endpoint=*/false); }

bool TcpTransport::dial(const std::string& host, std::uint16_t port) {
  close_socket(/*and_endpoint=*/false);
  sockaddr_storage addr{};
  const socklen_t addr_len = fill_addr(host, port, addr);
  if (addr_len == 0) return false;
  fd_ = make_tcp_socket(addr.ss_family);
  if (fd_ < 0) return false;
  can_redial_ = true;
  redial_ip_ = host;
  redial_port_ = port;
  connect_done_ = false;
  const int rc =
      ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), addr_len);
  if (rc == 0) {
    connect_done_ = true;
    connects_.inc();
  } else if (errno != EINPROGRESS) {
    // Immediate failure (ENETUNREACH, ...): surface it as a session drop so
    // the daemon's retry policy takes over.
    socket_errors_.inc();
    close_socket(/*and_endpoint=*/true);
    return true;
  }
  register_fd();
  return true;
}

bool TcpTransport::adopt(int fd) {
  if (fd < 0) return false;
  close_socket(/*and_endpoint=*/false);
  fd_ = fd;
  can_redial_ = false;
  connect_done_ = true;
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  register_fd();
  return true;
}

void TcpTransport::register_fd() {
  if (fd_ < 0) return;
  // Write interest stays armed until the connect completes and the backlog
  // is flushed once; afterwards it is re-armed only on short writes.
  want_write_ = true;
  loop_->add(fd_, kReadable | kWritable,
             [this](std::uint32_t events) { on_event(events); });
}

void TcpTransport::on_event(std::uint32_t events) {
  if (fd_ < 0) return;
  if (events & kWritable) {
    if (!connect_done_) {
      int err = 0;
      socklen_t len = sizeof err;
      if (getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        socket_errors_.inc();
        close_socket(/*and_endpoint=*/true);
        return;
      }
      connect_done_ = true;
      connects_.inc();
    }
    flush_outbound();
  }
  if ((events & kReadable) && fd_ >= 0) read_inbound();
}

void TcpTransport::consume_inbound() {
  if (!on_inbound_) return;
  on_inbound_();
  // The hook consumed the queue: a read paused at the watermark resumes
  // now rather than at the next sync(). The drain is left to the loop's
  // re-report so one busy session cannot starve the others.
  if (can_resume_reads()) resume_reads();
}

void TcpTransport::set_ingest_limits(const IngestLimits& limits) {
  limits_ = limits;
  ingest_bucket_ = TokenBucket(limits.max_bytes_per_sec, limits.burst_bytes);
}

bool TcpTransport::maybe_pause_reads(std::size_t chunk) {
  bool over = !ingest_bucket_.spend(static_cast<double>(chunk),
                                    loop_->now_ms());
  if (limits_.queue_high_watermark > 0 &&
      inbound().size() >= limits_.queue_high_watermark) {
    over = true;
  }
  if (!over || reads_paused_ || fd_ < 0) return false;
  reads_paused_ = true;
  loop_->modify(fd_, want_write_ ? kWritable : 0);
  read_pauses_.inc();
  paused_sessions_.add(1);
  return true;
}

bool TcpTransport::can_resume_reads() {
  if (!reads_paused_ || fd_ < 0) return false;
  if (ingest_bucket_.in_debt(loop_->now_ms())) return false;
  if (limits_.queue_high_watermark > 0) {
    const std::size_t low = limits_.queue_low_watermark > 0
                                ? limits_.queue_low_watermark
                                : limits_.queue_high_watermark / 4;
    if (inbound().size() > low) return false;
  }
  return true;
}

void TcpTransport::resume_reads() {
  reads_paused_ = false;
  loop_->modify(fd_, kReadable | (want_write_ ? kWritable : 0));
  read_resumes_.inc();
  paused_sessions_.sub(1);
}

void TcpTransport::maybe_resume_reads() {
  if (!can_resume_reads()) return;
  resume_reads();
  // EPOLL_CTL_MOD re-reports a still-readable fd under EPOLLET, but drain
  // now so the resume does not depend on that edge.
  read_inbound();
}

void TcpTransport::read_inbound() {
  std::uint8_t buffer[16384];
  bool delivered = false;
  bool ended = false;
  while (!ended && !reads_paused_ && fd_ >= 0) {
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n > 0) {
      bytes_read_.inc(static_cast<std::uint64_t>(n));
      deliver_inbound(std::span(buffer, static_cast<std::size_t>(n)));
      delivered = true;
      maybe_pause_reads(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // FIN (the remote end closed or half-closed the conversation; BGP has
    // no meaningful simplex mode) or ECONNRESET and friends: it is over.
    (n == 0 ? remote_closes_ : socket_errors_).inc();
    ended = true;
  }
  if (delivered) consume_inbound();
  // Close only after the hook consumed what arrived with the FIN or reset:
  // the close clears the queue (Transport::disconnect).
  if (ended) close_socket(/*and_endpoint=*/true);
}

void TcpTransport::deliver_inbound(std::span<const std::uint8_t> chunk) {
  // Routed through the endpoint's write hook so a fault overlay perturbs
  // real socket traffic exactly like it perturbed in-memory messages
  // (granularity is the read chunk rather than one encoded message).
  if (role_ == Role::kDaemonSide) {
    endpoint_->write_to_daemon(chunk);
  } else {
    endpoint_->write_to_peer(chunk);
  }
}

void TcpTransport::flush_outbound() {
  if (fd_ < 0 || !connect_done_) return;
  auto& queue = outbound();
  while (!queue.empty()) {
    const auto chunk = queue.peek();
    const ssize_t n = ::send(fd_, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes_written_.inc(static_cast<std::uint64_t>(n));
      queue.consume(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: keep the backlog and ask for EPOLLOUT.
      if (!want_write_) {
        want_write_ = true;
        loop_->modify(fd_, kReadable | kWritable);
      }
      return;
    }
    socket_errors_.inc();  // EPIPE / ECONNRESET on write
    close_socket(/*and_endpoint=*/true);
    return;
  }
  if (want_write_) {
    want_write_ = false;
    loop_->modify(fd_, kReadable);
  }
}

void TcpTransport::sync() {
  if (fd_ < 0) {
    // The endpoint was reconnected (retry policy) while the socket was
    // dead, or an overlay reset was rolled back: restore the socket.
    if (endpoint_ != this && endpoint_->connected() && can_redial_) {
      dial(redial_ip_, redial_port_);
    }
    return;
  }
  if (!endpoint_->connected() && endpoint_ == this) {
    // Endpoint-initiated disconnect already closed us via the virtual
    // disconnect(); nothing to do.
    return;
  }
  maybe_resume_reads();
  flush_outbound();
}

void TcpTransport::write_to_peer(std::span<const std::uint8_t> message) {
  daemon::Transport::write_to_peer(message);
  if (role_ == Role::kDaemonSide) flush_outbound();
}

void TcpTransport::write_to_daemon(std::span<const std::uint8_t> message) {
  daemon::Transport::write_to_daemon(message);
  if (role_ == Role::kPeerSide) flush_outbound();
}

void TcpTransport::disconnect() {
  close_socket(/*and_endpoint=*/false);
  daemon::Transport::disconnect();
}

void TcpTransport::reconnect() {
  if (!can_redial_) return;  // adopted socket: the remote re-dials us
  daemon::Transport::reconnect();
  if (fd_ < 0) dial(redial_ip_, redial_port_);
}

void TcpTransport::close_socket(bool and_endpoint) {
  if (fd_ >= 0) {
    loop_->remove(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  connect_done_ = false;
  want_write_ = false;
  if (reads_paused_) {
    reads_paused_ = false;
    paused_sessions_.sub(1);
  }
  if (and_endpoint && endpoint_->connected()) endpoint_->disconnect();
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(EventLoop& loop, metrics::Registry* registry)
    : loop_(&loop),
      accepts_(resolve(registry).counter("gill_net_accepts_total",
                                         "Inbound connections accepted")),
      accept_errors_(resolve(registry).counter(
          "gill_net_accept_errors_total", "accept() failures")) {}

TcpListener::~TcpListener() { close(); }

bool TcpListener::listen(const std::string& host, std::uint16_t port,
                         AcceptCallback on_accept, int backlog) {
  close();
  sockaddr_storage addr{};
  const socklen_t addr_len = fill_addr(host, port, addr);
  if (addr_len == 0) return false;
  fd_ = ::socket(addr.ss_family,
                 SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (addr.ss_family == AF_INET6) {
    // Dual-stack where the host allows it: an explicit v6 bind should not
    // also claim the v4 port space decision — leave v6only off (default on
    // Linux is configurable; pin it).
    const int off = 0;
    setsockopt(fd_, IPPROTO_IPV6, IPV6_V6ONLY, &off, sizeof off);
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), addr_len) != 0 ||
      ::listen(fd_, backlog) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  sockaddr_storage bound{};
  socklen_t len = sizeof bound;
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = peer_port(bound);
  }
  on_accept_ = std::move(on_accept);
  loop_->add(fd_, kReadable, [this](std::uint32_t) { on_readable(); });
  return true;
}

void TcpListener::close() {
  if (fd_ >= 0) {
    loop_->remove(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  port_ = 0;
}

void TcpListener::on_readable() {
  for (;;) {
    sockaddr_storage peer{};
    socklen_t len = sizeof peer;
    const int fd = ::accept4(fd_, reinterpret_cast<sockaddr*>(&peer), &len,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) accept_errors_.inc();
      return;
    }
    accepts_.inc();
    if (on_accept_) {
      on_accept_(fd, peer_ip(peer), peer_port(peer));
    } else {
      ::close(fd);
    }
  }
}

}  // namespace gill::net
