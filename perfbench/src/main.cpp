// perfbench: one run of one collector workload.
//
//   perfbench --workload ingest_firehose --seed 1 --seconds 10 --trace 0
//             --collector .bench_build/perfbench/tools/gill-collectord
//             --workdir <private dir> --trace-dir <dir for span files>
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when an output check failed. perfbench/run.py builds and invokes it.
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "collector.hpp"
#include "workloads.hpp"

namespace {

using pb::Result;

/// Must match BENCHMARK.json.
constexpr const char* kEndToEnd[] = {
    "setup_s",       "throughput_per_s", "latency_p50_ms",
    "latency_tail_ms", "cpu_us_per_op",  "peak_rss_mb"};
constexpr const char* kPerLayer[] = {
    "wire.decode_ns_per_update",      "daemon.poll_ns_per_update",
    "daemon.poll_self_ns_per_update", "daemon.updates_received",
    "daemon.decode_errors",           "bgp.rib_apply_ns_per_update",
    "mrt.write_update_ns_per_update", "mrt.store_bytes_per_update",
    "archive.store_ns_per_update",    "feed.encode_live_ns_per_update",
    "net.stream_publish_ns_per_update", "net.read_pauses",
    "net.stream_dropped_msgs",        "net.stream_evictions",
    "net.stream_max_queue_bytes",     "collector.stream_wait_ms_p50",
    "collector.merge_sort_ms",        "archive.query_plan_us",
    "archive.scan_ns_per_record",     "archive.segments_planned",
    "archive.prune_ratio",            "archive.cache_hit_ratio",
    "archive.cache_disk_reads",       "redundancy.component1_ms",
    "anchor.event_selection_ms",      "features.extract_ms",
    "anchor.scores_ms",               "anchor.score_cache_hit_ratio",
    "anchor.select_anchors_ms",       "filters.generate_ms",
    "filters.accept_ns_per_update",   "filters.drop_ratio",
    "parallel.shards_executed",       "generator.send_lag_p50_ms",
    "generator.send_lag_p99_ms",      "cost_model.unaccounted_share",
    "trace.overhead_share"};

/// A run must end well inside the 180 s a harness allows it.
constexpr unsigned kWatchdogSeconds = 170;

void on_fatal_signal(int signal) {
  pb::kill_collector_child();
  const char message[] = "perfbench: interrupted\n";
  (void)!::write(2, message, sizeof message - 1);
  ::_exit(128 + signal);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --collector PATH --workdir DIR --trace-dir DIR "
               "[--sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options options;
  std::string sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--collector") {
      options.collector = value;
    } else if (key == "--workdir") {
      options.workdir = value;
    } else if (key == "--trace-dir") {
      options.trace_dir = value;
    } else if (key == "--sha") {
      sha = value;
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || options.collector.empty() ||
      options.workdir.empty() || options.trace_dir.empty() ||
      !(options.seconds > 0)) {
    return usage();
  }

  // The collector child dies with us (PR_SET_PDEATHSIG on its side); we die
  // with our parent, and every fatal path kills the child first.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  for (const int signal : {SIGTERM, SIGINT, SIGHUP, SIGALRM}) {
    ::signal(signal, on_fatal_signal);
  }
  ::signal(SIGPIPE, SIG_IGN);
  ::alarm(kWatchdogSeconds);

  Result result;
  if (!pb::make_dirs(options.workdir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.workdir.c_str());
    return 2;
  }
  if (options.workload == "ingest_firehose") {
    pb::run_ingest(options, /*paced=*/false, result);
  } else if (options.workload == "ingest_paced") {
    pb::run_ingest(options, /*paced=*/true, result);
  } else if (options.workload == "archive_query") {
    pb::run_archive(options, result);
  } else if (options.workload == "filter_refresh") {
    pb::run_refresh(options, result);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  pb::remove_tree(options.workdir);

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("stamp: {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"git_sha\": %s, \"nproc\": %u}\n",
              json_string(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              json_number(options.seconds).c_str(), options.trace ? 1 : 0,
              json_string(sha).c_str(), nproc);
  for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
  for (const auto& metric : result.metrics) {
    std::printf("%-34s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  std::string metrics;
  const auto add = [&](const char* name) {
    if (!result.has(name)) {
      result.problem(std::string("metric not measured: ") + name);
      return;
    }
    double value = 0;
    std::string unit;
    for (const auto& metric : result.metrics) {
      if (metric.name == name) {
        value = metric.value;
        unit = metric.unit;
      }
    }
    if (!std::isfinite(value)) {
      result.problem(std::string("metric not finite: ") + name);
      value = 0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(unit) + "}";
  };
  if (options.trace) {
    for (const char* name : kPerLayer) add(name);
  } else {
    for (const char* name : kEndToEnd) add(name);
  }
  if (result.attempted == 0) result.problem("no operation attempted");
  for (const auto& problem : result.problems) {
    std::printf("check failed: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  1, result.attempted)),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
