// A forked gill-collectord on loopback, for gill-scenariod and the tests
// that drive the real collector: free ports, a fresh archive directory, a
// 1 s rotation, and a wait for /v1/healthz before anyone dials it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace gill::harness {

/// Binds an ephemeral loopback port, records it, releases it. Racy by
/// nature, fine for a test harness.
std::uint16_t pick_free_port();

/// One gill-collectord child bound to 127.0.0.1 with `--archive-dir` (a
/// fresh temporary directory), `--rotate-secs 1` and `--tick-ms 20`.
struct CollectordProcess {
  pid_t pid = -1;
  std::uint16_t bgp_port = 0;
  std::uint16_t http_port = 0;
  std::string archive_dir;

  CollectordProcess() = default;
  CollectordProcess(const CollectordProcess&) = delete;
  CollectordProcess& operator=(const CollectordProcess&) = delete;
  ~CollectordProcess() { stop(); }

  /// Forks `binary` with the flags above plus `extra_args` and waits up
  /// to 10 s for its operator plane. False when no port or directory is
  /// available, or the child dies or never answers /v1/healthz.
  bool start(const std::string& binary,
             const std::vector<std::string>& extra_args = {});
  /// SIGTERM, SIGKILL after 5 s; removes the archive directory.
  void stop();
};

}  // namespace gill::harness
