// The scenario driver (DESIGN.md §13): replays a built Scenario into a
// collector and produces the closed-loop verdict.
//
// Two modes share the scenario, shaping and scoring layers:
//
//  * run_tcp() drives a REAL gill-collectord across loopback TCP: one
//    kPeerSide TcpTransport + ShapedTransport overlay + FakePeer per VP,
//    live /v1/stream?format=mrt subscription for detection latency, and a
//    post-run /v1/data pull for delivery completeness. Wall-clock paced.
//
//  * run_in_memory() embeds its own collect::Platform on a logical clock —
//    fully deterministic under the scenario seed (byte-identical archived
//    MRT across runs and across analysis-thread counts), which is what the
//    determinism tests pin down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/verdict.hpp"

namespace gill::harness {

struct DriverConfig {
  // TCP mode: where the collector lives.
  std::string host = "127.0.0.1";
  std::uint16_t bgp_port = 0;
  std::uint16_t http_port = 0;
  /// Window the paced event replay is squeezed into.
  double replay_ms = 3000.0;
  /// Post-replay drain: lets shaped queues empty, the collector seal
  /// segments (run it with --rotate-secs 1) and the stream deliver.
  double settle_ms = 2500.0;
  /// Hard watchdog on the whole run.
  double timeout_ms = 60000.0;
  // In-memory mode: workers for the post-replay refresh's parallel stages
  // (0 runs them serially).
  std::size_t analysis_threads = 0;
  /// Ingest shards the TARGET collector runs with (--ingest-shards); the
  /// driver only records it in the verdict, the collector owns the plane.
  std::size_t ingest_shards = 1;
};

class ScenarioDriver {
 public:
  /// `scenario` must outlive the driver.
  ScenarioDriver(Scenario& scenario, DriverConfig config)
      : scenario_(&scenario), config_(config) {}

  /// Drives the live collector. Throws std::runtime_error on setup
  /// failures (cannot dial, sessions never establish, HTTP unreachable).
  ScenarioVerdict run_tcp();

  /// Deterministic embedded run; scores from the in-memory archive the
  /// run attaches to its platform.
  ScenarioVerdict run_in_memory();

  /// The archived MRT byte stream of the last run_in_memory() call (the
  /// determinism tests compare these across runs / thread counts).
  const std::vector<std::uint8_t>& archived_bytes() const noexcept {
    return archived_bytes_;
  }

 private:
  Scenario* scenario_;
  DriverConfig config_;
  std::vector<std::uint8_t> archived_bytes_;
};

}  // namespace gill::harness
