#include "harness/collectord_process.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "harness/http_client.hpp"

namespace gill::harness {

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

bool CollectordProcess::start(const std::string& binary,
                              const std::vector<std::string>& extra_args) {
  bgp_port = pick_free_port();
  http_port = pick_free_port();
  if (bgp_port == 0 || http_port == 0 || bgp_port == http_port) {
    return false;
  }
  char dir_template[] = "/tmp/gill-collectord-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) return false;
  archive_dir = dir_template;
  std::vector<std::string> args = {binary, "--bind", "127.0.0.1",
                                   "--listen-port", std::to_string(bgp_port),
                                   "--http-port", std::to_string(http_port),
                                   "--archive-dir", archive_dir,
                                   "--rotate-secs", "1", "--tick-ms", "20"};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  // Built before fork: the child only execs.
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "collectord: exec %s failed: %s\n", binary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  // Wait for the operator plane to come up.
  for (int i = 0; i < 200; ++i) {
    const auto health = http_get("127.0.0.1", http_port, "/v1/healthz", 250);
    if (health && health->status == 200) return true;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      pid = -1;
      return false;  // child died during startup
    }
    ::usleep(50 * 1000);
  }
  return false;
}

void CollectordProcess::stop() {
  if (pid > 0) {
    ::kill(pid, SIGTERM);
    int status = 0;
    int polls = 0;
    while (::waitpid(pid, &status, WNOHANG) != pid && ++polls < 100) {
      ::usleep(50 * 1000);
    }
    if (polls == 100) {  // still running after 5 s
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
    pid = -1;
  }
  if (!archive_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(archive_dir, ec);
    archive_dir.clear();
  }
}

}  // namespace gill::harness
