// The closed-loop scenario harness (DESIGN.md §13): replays simulated
// routing incidents — route leaks, sub-prefix hijacks — into a REAL
// gill-collectord over live loopback TCP sessions shaped with per-VP
// latency/jitter/loss/bandwidth, then scores what the collector actually
// streamed (/v1/stream) and archived (/v1/data) against the simulator's
// ground truth. The verdict is machine-readable JSON; the exit status is 0
// only when every scenario's anomaly was detected end to end.
//
//   gill-scenariod --collectord ./gill-collectord --scenario route-leak
//       --scenario subprefix-hijack --latency-ms 15 --jitter-ms 5
//       --loss 0.02 --verdict verdict.json
//
// With --in-memory the harness embeds its own collect::Platform on a
// logical clock instead — fully deterministic under --seed (the
// determinism tests compare --archive-out bytes across runs).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "harness/collectord_process.hpp"
#include "harness/driver.hpp"
#include "harness/scenario.hpp"

namespace {

constexpr const char* kUsage =
    "usage: gill-scenariod [options]\n"
    "  --scenario NAME        route-leak | subprefix-hijack (repeatable;\n"
    "                         default: both)\n"
    "  --collectord PATH      fork/exec this gill-collectord binary and\n"
    "                         drive it over loopback TCP\n"
    "  --bgp-port N           drive an already-running collector instead\n"
    "  --http-port N          ... its operator-plane port\n"
    "  --host IP              ... its address (default 127.0.0.1)\n"
    "  --in-memory            embed the platform; deterministic logical clock\n"
    "  --archive-out PATH     (in-memory) write the archived MRT bytes here\n"
    "  --latency-ms N         one-way link latency per VP session (default 10)\n"
    "  --jitter-ms N          uniform jitter on top of latency (default 4)\n"
    "  --loss P               UPDATE loss probability, 0..1 (default 0.01)\n"
    "  --bandwidth-kbps N     per-session serialization cap (default off)\n"
    "  --ases N               topology size (default 48)\n"
    "  --vps N                vantage-point sessions (default 12)\n"
    "  --seed N               scenario + shaping + pacing seed (default 1)\n"
    "  --rate N               mean event rate/s for the pacing model (default 50)\n"
    "  --replay-ms N          event replay window (default 3000)\n"
    "  --settle-ms N          post-replay drain (default 2500)\n"
    "  --timeout-ms N         per-scenario watchdog (default 60000)\n"
    "  --verdict PATH         write the JSON verdict here (default stdout)\n";

bool write_file(const std::string& path, const void* data, std::size_t size) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(data, 1, size, file) == size;
  std::fclose(file);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gill;
  const cli::Args args(argc, argv);
  if (args.has("help")) cli::usage(kUsage);

  std::vector<harness::ScenarioKind> kinds;
  for (const std::string& name : args.get_all("scenario")) {
    const auto kind = harness::parse_scenario_kind(name);
    if (!kind) {
      std::fprintf(stderr, "scenariod: unknown scenario '%s'\n", name.c_str());
      return 2;
    }
    kinds.push_back(*kind);
  }
  if (kinds.empty()) {
    kinds = {harness::ScenarioKind::kRouteLeak,
             harness::ScenarioKind::kSubprefixHijack};
  }

  const bool in_memory = args.has("in-memory");
  const std::string collectord_path = args.get("collectord", "");
  if (!in_memory && collectord_path.empty() && !args.has("bgp-port")) {
    std::fprintf(stderr,
                 "scenariod: need --collectord, --bgp-port/--http-port, or "
                 "--in-memory\n%s",
                 kUsage);
    return 2;
  }

  harness::ScenarioConfig base;
  base.as_count = static_cast<std::size_t>(args.get_int("ases", 48));
  base.vp_count = static_cast<std::size_t>(args.get_int("vps", 12));
  base.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  base.link.latency_ms = static_cast<double>(args.get_int("latency-ms", 10));
  base.link.jitter_ms = static_cast<double>(args.get_int("jitter-ms", 4));
  base.link.loss_rate = std::strtod(args.get("loss", "0.01").c_str(), nullptr);
  base.link.bandwidth_bytes_per_sec =
      static_cast<double>(args.get_int("bandwidth-kbps", 0)) * 125.0;
  base.pacing.mean_rate_per_sec =
      static_cast<double>(args.get_int("rate", 50));

  harness::DriverConfig driver_config;
  driver_config.host = args.get("host", "127.0.0.1");
  driver_config.replay_ms = static_cast<double>(args.get_int("replay-ms", 3000));
  driver_config.settle_ms = static_cast<double>(args.get_int("settle-ms", 2500));
  driver_config.timeout_ms =
      static_cast<double>(args.get_int("timeout-ms", 60000));

  bool all_passed = true;
  std::string json = "{\"scenarios\":[";
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    harness::ScenarioConfig config = base;
    config.kind = kinds[i];
    config.seed = base.seed + i;  // decorrelate shaping/pacing across runs

    harness::CollectordProcess child;
    harness::DriverConfig run_config = driver_config;
    if (!in_memory) {
      if (!collectord_path.empty()) {
        if (!child.start(collectord_path)) {
          std::fprintf(stderr, "scenariod: cannot start %s\n",
                       collectord_path.c_str());
          return 1;
        }
        run_config.bgp_port = child.bgp_port;
        run_config.http_port = child.http_port;
      } else {
        run_config.bgp_port =
            static_cast<std::uint16_t>(args.get_int("bgp-port", 0));
        run_config.http_port =
            static_cast<std::uint16_t>(args.get_int("http-port", 0));
      }
    }

    try {
      harness::Scenario scenario = harness::build_scenario(config);
      harness::ScenarioDriver driver(scenario, run_config);
      const harness::ScenarioVerdict verdict =
          in_memory ? driver.run_in_memory() : driver.run_tcp();
      if (i) json.push_back(',');
      json += verdict.to_json();
      all_passed = all_passed && verdict.passed;
      std::fprintf(stderr,
                   "scenariod: %s %s (sent %zu, archived %zu, "
                   "completeness %.3f, lost %zu)\n",
                   scenario.name.c_str(), verdict.passed ? "PASS" : "FAIL",
                   verdict.updates_sent, verdict.updates_delivered,
                   verdict.delivery_completeness, verdict.link_lost_updates);
      if (in_memory && args.has("archive-out")) {
        const std::string out = args.get("archive-out", "");
        // Suffix per scenario when several run, so files don't clobber.
        const std::string path =
            kinds.size() == 1 ? out : out + "." + scenario.name;
        if (!write_file(path, driver.archived_bytes().data(),
                        driver.archived_bytes().size())) {
          std::fprintf(stderr, "scenariod: cannot write %s\n", path.c_str());
          return 1;
        }
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "scenariod: scenario %s failed: %s\n",
                   std::string(harness::to_string(kinds[i])).c_str(),
                   error.what());
      return 1;
    }
  }
  json += "],\"passed\":";
  json += all_passed ? "true" : "false";
  json += "}\n";

  const std::string verdict_path = args.get("verdict", "-");
  if (verdict_path == "-" || verdict_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else if (!write_file(verdict_path, json.data(), json.size())) {
    std::fprintf(stderr, "scenariod: cannot write %s\n", verdict_path.c_str());
    return 1;
  }
  return all_passed ? 0 : 1;
}
