// The collector under test as a child process, and the loopback client
// pieces the serving workloads drive it with: BGP session set-up, an
// incremental HTTP/1.1 response parser, MRT record framing and the
// /v1/metrics scrape.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/types.hpp"

namespace pb {

/// gill-collectord started with its defaults except a loopback bind,
/// ephemeral BGP/HTTP ports (read back from the startup banner) and a
/// private archive directory. The destructor kills and reaps it, and the
/// child dies with the benchmark (PR_SET_PDEATHSIG) whatever the exit path.
class Collector {
 public:
  Collector() = default;
  ~Collector() { stop(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// The command-line flags start() passes (the stamp records them).
  static std::vector<std::string> flags(const std::string& archive_dir);

  /// Launches `binary` with its log in `dir`/collectord.log and its archive
  /// in `dir`/archive; waits for the banner. False (and `error`) on failure.
  bool start(const std::string& binary, const std::string& dir,
             std::string* error);
  /// SIGKILL + waitpid. Idempotent.
  void stop();
  /// Why the collector can no longer serve: its exit status and the tail
  /// of its log, or "" while it runs.
  std::string failure();

  std::uint16_t bgp_port() const { return bgp_port_; }
  std::uint16_t http_port() const { return http_port_; }

  /// User + system CPU seconds consumed so far (/proc/<pid>/stat).
  double cpu_seconds() const;
  /// Peak resident set (VmHWM), MiB.
  double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
  std::string log_;
  std::uint16_t bgp_port_ = 0;
  std::uint16_t http_port_ = 0;
};

/// Kills the running collector child, if any (async-signal-safe; used by
/// the signal handlers and the watchdog).
void kill_collector_child();

/// Non-blocking, TCP_NODELAY loopback connection; -1 on failure.
int connect_loopback(std::uint16_t port);
/// Writes all of `data` on a non-blocking socket before `deadline`.
bool send_all(int fd, std::string_view data, double deadline);

/// The peer half of a BGP handshake as AS `as`, advertising RFC 4724
/// graceful restart: bgp_open sends OPEN + KEEPALIVE, bgp_await waits for
/// the collector's OPEN and KEEPALIVE. Split so several sessions can come
/// up within one collector tick.
bool bgp_open(int fd, gill::bgp::AsNumber as, double deadline,
              std::string* error);
bool bgp_await(int fd, double deadline, std::string* error);

/// Incremental parser of one HTTP/1.1 response (Content-Length, chunked,
/// or until close).
class HttpResponseParser {
 public:
  /// Consumes raw socket bytes, appending de-chunked payload to `payload`.
  /// False on a malformed response.
  bool feed(const char* data, std::size_t size, std::string& payload);
  bool headers_done() const { return state_ != State::kHeaders; }
  bool complete() const { return state_ == State::kDone; }
  int status() const { return status_; }

 private:
  enum class State { kHeaders, kSize, kData, kDataEnd, kTrailer, kBody, kDone };
  State state_ = State::kHeaders;
  std::string head_;
  std::string line_;
  std::size_t remaining_ = 0;
  bool has_length_ = false;
  int status_ = 0;
};

/// Walks framed MRT records (RFC 6396 common header) across chunk
/// boundaries. Calls `on_record(record)` with each complete record.
class MrtFramer {
 public:
  template <typename F>
  void consume(std::string& buffer, F&& on_record) {
    std::size_t offset = 0;
    while (buffer.size() - offset >= kHeader) {
      const std::size_t length = be32(buffer.data() + offset + 8);
      if (buffer.size() - offset < kHeader + length) break;
      on_record(std::string_view(buffer.data() + offset, kHeader + length));
      offset += kHeader + length;
    }
    buffer.erase(0, offset);
  }
  static constexpr std::size_t kHeader = 12;
  static std::uint32_t be32(const char* p) {
    const auto* u = reinterpret_cast<const unsigned char*>(p);
    return (std::uint32_t{u[0]} << 24) | (std::uint32_t{u[1]} << 16) |
           (std::uint32_t{u[2]} << 8) | std::uint32_t{u[3]};
  }
  static std::uint16_t be16(const char* p) {
    const auto* u = reinterpret_cast<const unsigned char*>(p);
    return static_cast<std::uint16_t>((u[0] << 8) | u[1]);
  }
};

/// GET /v1/metrics; empty on failure.
std::string scrape_metrics(std::uint16_t http_port);
/// Sum of every sample of the Prometheus family `name` (all label sets).
double metric_sum(const std::string& exposition, const std::string& name);

}  // namespace pb
