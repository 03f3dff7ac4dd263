#include "collector.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness/http_client.hpp"
#include "util.hpp"
#include "wire/messages.hpp"

namespace pb {

namespace {

std::atomic<pid_t> g_child{-1};

constexpr double kStartTimeoutS = 30.0;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Parses "<marker>127.0.0.1:<port>" out of the banner line.
bool banner_port(const std::string& log, const char* marker,
                 std::uint16_t* port) {
  const std::size_t at = log.find(marker);
  if (at == std::string::npos) return false;
  const std::size_t colon = log.find(':', at + std::strlen(marker));
  if (colon == std::string::npos) return false;
  const long value = std::strtol(log.c_str() + colon + 1, nullptr, 10);
  if (value <= 0 || value > 65535) return false;
  *port = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace

void kill_collector_child() {
  const pid_t pid = g_child.load();
  if (pid > 0) ::kill(pid, SIGKILL);
}

std::vector<std::string> Collector::flags(const std::string& archive_dir) {
  return {"--bind",      "127.0.0.1", "--listen-port", "0",
          "--http-port", "0",         "--archive-dir", archive_dir};
}

bool Collector::start(const std::string& binary, const std::string& dir,
                      std::string* error) {
  stop();
  log_ = dir + "/collectord.log";
  const std::string& log = log_;
  // A previous launch's banner must not be mistaken for this one's.
  ::unlink(log.c_str());
  std::vector<std::string> args{binary};
  for (auto& flag : flags(dir + "/archive")) args.push_back(flag);
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int in = ::open("/dev/null", O_RDONLY);
    if (out < 0 || in < 0) ::_exit(127);
    ::dup2(in, 0);
    ::dup2(out, 1);
    ::dup2(out, 2);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  g_child.store(pid);

  const double deadline = now_s() + kStartTimeoutS;
  while (now_s() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      g_child.store(-1);
      *error = "collector exited during start-up: " + read_file(log);
      return false;
    }
    const std::string text = read_file(log);
    if (text.find("HTTP on ") != std::string::npos &&
        banner_port(text, "BGP on ", &bgp_port_) &&
        banner_port(text, "HTTP on ", &http_port_)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  *error = "no collector banner within the start-up timeout";
  stop();
  return false;
}

void Collector::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  g_child.store(-1);
}

std::string Collector::failure() {
  if (pid_ <= 0) return "collector not running";
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return "";
  pid_ = -1;
  g_child.store(-1);
  std::string log = read_file(log_);
  if (log.size() > 2000) log = log.substr(log.size() - 2000);
  return "collector exited (" +
         (WIFSIGNALED(status) ? "signal " + std::to_string(WTERMSIG(status))
                              : "status " + std::to_string(WEXITSTATUS(status))) +
         "): " + log;
}

double Collector::cpu_seconds() const {
  const std::string stat =
      read_file("/proc/" + std::to_string(pid_) + "/stat");
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Field 3 (state) is the first after ") "; utime and stime are 14, 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (index == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Collector::peak_rss_mb() const {
  const std::string status =
      read_file("/proc/" + std::to_string(pid_) + "/status");
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  const double kib = std::strtod(status.c_str() + at + 6, nullptr);
  return kib / 1024.0;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

bool send_all(int fd, std::string_view data, double deadline) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = ::send(fd, data.data() + offset, data.size() - offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (now_s() > deadline) return false;
      pollfd entry{fd, POLLOUT, 0};
      ::poll(&entry, 1, 10);
      continue;
    }
    return false;
  }
  return true;
}

bool bgp_open(int fd, gill::bgp::AsNumber as, double deadline,
              std::string* error) {
  using namespace gill;
  wire::OpenMessage open;
  open.as = as;
  open.hold_time = 240;
  open.bgp_id = 0x0A000000u | as;
  open.gr_enabled = true;
  auto bytes = wire::encode(open);
  const auto keepalive = wire::encode(wire::KeepaliveMessage{});
  bytes.insert(bytes.end(), keepalive.begin(), keepalive.end());
  if (!send_all(fd,
                std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                 bytes.size()),
                deadline)) {
    *error = "cannot send OPEN";
    return false;
  }
  return true;
}

bool bgp_await(int fd, double deadline, std::string* error) {
  using namespace gill;
  std::vector<std::uint8_t> pending;
  bool got_open = false;
  bool got_keepalive = false;
  while (!(got_open && got_keepalive)) {
    if (now_s() > deadline) {
      *error = "BGP handshake timed out";
      return false;
    }
    std::uint8_t buffer[4096];
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n == 0) {
      *error = "collector closed the BGP session";
      return false;
    }
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        *error = "BGP recv failed";
        return false;
      }
      pollfd entry{fd, POLLIN, 0};
      ::poll(&entry, 1, 10);
      continue;
    }
    pending.insert(pending.end(), buffer, buffer + n);
    std::size_t offset = 0;
    while (offset < pending.size()) {
      std::size_t consumed = 0;
      const auto message = wire::decode(
          std::span(pending.data() + offset, pending.size() - offset),
          consumed);
      if (consumed == 0) break;
      offset += consumed;
      if (!message) continue;
      const auto type = wire::type_of(*message);
      if (type == wire::MessageType::kOpen) got_open = true;
      if (type == wire::MessageType::kKeepalive) got_keepalive = true;
      if (type == wire::MessageType::kNotification) {
        *error = "collector sent a NOTIFICATION";
        return false;
      }
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  return true;
}

bool HttpResponseParser::feed(const char* data, std::size_t size,
                              std::string& payload) {
  std::size_t i = 0;
  while (i < size) {
    switch (state_) {
      case State::kHeaders: {
        head_.append(data + i, size - i);
        i = size;
        const std::size_t end = head_.find("\r\n\r\n");
        if (end == std::string::npos) {
          if (head_.size() > 65536) return false;
          break;
        }
        if (head_.compare(0, 9, "HTTP/1.1 ") != 0) return false;
        status_ = std::atoi(head_.c_str() + 9);
        const std::string headers = head_.substr(0, end);
        const std::string rest = head_.substr(end + 4);
        head_.clear();
        if (headers.find("Transfer-Encoding: chunked") != std::string::npos) {
          state_ = State::kSize;
        } else {
          state_ = State::kBody;
          const std::size_t length = headers.find("Content-Length: ");
          if (length != std::string::npos) {
            has_length_ = true;
            remaining_ = std::strtoull(headers.c_str() + length + 16, nullptr,
                                       10);
            if (remaining_ == 0) state_ = State::kDone;
          }
        }
        if (!rest.empty()) return feed(rest.data(), rest.size(), payload);
        break;
      }
      case State::kSize: {
        const char c = data[i++];
        if (c == '\n') {
          const unsigned long long chunk =
              std::strtoull(line_.c_str(), nullptr, 16);
          line_.clear();
          if (chunk == 0) {
            state_ = State::kTrailer;
          } else {
            remaining_ = chunk;
            state_ = State::kData;
          }
        } else if (c != '\r') {
          line_ += c;
          if (line_.size() > 32) return false;
        }
        break;
      }
      case State::kData: {
        const std::size_t take = std::min(remaining_, size - i);
        payload.append(data + i, take);
        i += take;
        remaining_ -= take;
        if (remaining_ == 0) state_ = State::kDataEnd;
        break;
      }
      case State::kDataEnd: {
        const char c = data[i++];
        if (c == '\n') {
          state_ = State::kSize;
        } else if (c != '\r') {
          return false;
        }
        break;
      }
      case State::kTrailer: {
        const char c = data[i++];
        if (c == '\n') {
          if (line_.empty()) state_ = State::kDone;
          line_.clear();
        } else if (c != '\r') {
          line_ += c;
        }
        break;
      }
      case State::kBody: {
        std::size_t take = size - i;
        if (has_length_) take = std::min(take, remaining_);
        payload.append(data + i, take);
        i += take;
        if (has_length_) {
          remaining_ -= take;
          if (remaining_ == 0) state_ = State::kDone;
        }
        break;
      }
      case State::kDone:
        return i == size;  // bytes after the end of the response
    }
  }
  return true;
}

std::string scrape_metrics(std::uint16_t http_port) {
  const auto result =
      gill::harness::http_get("127.0.0.1", http_port, "/v1/metrics", 10000);
  if (!result || result->status != 200) return {};
  return result->body;
}

double metric_sum(const std::string& exposition, const std::string& name) {
  double total = 0;
  std::size_t at = 0;
  while (at < exposition.size()) {
    std::size_t end = exposition.find('\n', at);
    if (end == std::string::npos) end = exposition.size();
    const std::string_view line(exposition.data() + at, end - at);
    at = end + 1;
    if (line.size() <= name.size() || line.compare(0, name.size(), name) != 0) {
      continue;
    }
    const char next = line[name.size()];
    if (next != '{' && next != ' ') continue;
    const std::size_t space = line.rfind(' ');
    total += std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return total;
}

}  // namespace pb
