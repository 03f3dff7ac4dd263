// Archive store throughput: rotated MRT segments written through the
// SegmentWriter's async pool path (the gill-collectord configuration),
// then the read side at production scale (DESIGN.md §15): a cold
// index-pruned query on an engine with no pool or cache, the engine's
// cold-vs-hot latency over the segment cache, and N concurrent clients
// scanning the full store with a 1-thread vs 4-thread scan pool. Reports
// append records/sec, sealed segment count, query latencies, cache
// effectiveness and the concurrent scaling factor, and emits
// BENCH_archive.json.
//
// The paper's busiest VPs export ~28K updates/hour (~8/sec); the floor
// enforced under --strict (20000 records/sec appended) keeps >2500x
// headroom per collector even on a loaded CI box, so the disk path can
// never be the bottleneck the event loop feels. The read-side floors
// (hot >= 2x cold; >= 1.5x concurrent scaling at 4 scan threads, gated on
// >= 4 hardware threads) pin down the two claims the query engine makes:
// the cache removes the disk+decompress cost, and segment fan-out turns
// extra cores into operator-visible throughput.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive_writer.hpp"
#include "archive/query_engine.hpp"
#include "archive/segment_cache.hpp"
#include "bench_util.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace gill;
namespace fs = std::filesystem;

constexpr std::uint64_t kTotalRecords = 200000;
constexpr std::uint32_t kVps = 16;
constexpr bgp::Timestamp kRotateSecs = 900;
constexpr double kStrictRecordsPerSecFloor = 20000.0;
constexpr double kStrictHotSpeedupFloor = 2.0;
constexpr double kStrictConcurrentScalingFloor = 1.5;
constexpr int kConcurrentClients = 4;
constexpr int kScansPerClient = 3;
/// Timed rounds per pool size; the scaling figure compares their medians.
constexpr int kTimedRounds = 3;

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  return buffer;
}

bgp::Update synth_update(std::uint64_t i) {
  bgp::Update update;
  update.vp = static_cast<bgp::VpId>(i % kVps);
  // ~10 windows over the run: several rotations and a multi-segment index.
  update.time = static_cast<bgp::Timestamp>(
      1000 + i * (kRotateSecs * 10) / kTotalRecords);
  update.prefix = net::Prefix::parse("10." + std::to_string((i >> 8) % 200) +
                                     "." + std::to_string(i % 250) + ".0/24")
                      .value();
  update.path = bgp::AsPath{65010, static_cast<bgp::AsNumber>(64512 + i % 64)};
  return update;
}

/// Full-store scan through the engine; returns matched record count.
std::uint64_t drain_engine(archive::QueryEngine& engine) {
  auto cursor = engine.query({});
  std::string sink;
  while (cursor->next_chunk(sink)) {
    sink.clear();
  }
  return cursor->records_streamed();
}

/// One pool size's concurrent figure: every timed round's records/sec and
/// their median.
struct ConcurrentRun {
  std::vector<double> rounds;
  double median = 0.0;
};

/// Rounds of kConcurrentClients threads each running kScansPerClient full
/// scans on a shared engine with `threads` scan workers and no cache
/// (disk+decompress on every scan — the part fan-out is supposed to hide),
/// each round's figure being records/sec aggregated over all clients. One
/// untimed round first wakes the pool's threads and the idle vCPUs, which
/// a ~0.1 s round would otherwise mostly measure; then kTimedRounds timed
/// rounds.
ConcurrentRun concurrent_throughput(const std::string& directory,
                                    std::size_t threads,
                                    metrics::Registry& registry) {
  par::ThreadPool pool(threads, &registry);
  archive::QueryEngineConfig config;
  config.directory = directory;
  config.pool = &pool;
  config.registry = &registry;
  archive::QueryEngine engine(config);
  ConcurrentRun run;
  if (!engine.open()) return run;
  const auto round = [&engine] {
    std::vector<std::uint64_t> streamed(kConcurrentClients, 0);
    const bench::Stopwatch watch;
    std::vector<std::thread> clients;
    for (int c = 0; c < kConcurrentClients; ++c) {
      clients.emplace_back([&engine, &streamed, c] {
        for (int i = 0; i < kScansPerClient; ++i) {
          streamed[static_cast<std::size_t>(c)] += drain_engine(engine);
        }
      });
    }
    for (auto& client : clients) client.join();
    const double seconds = watch.seconds();
    std::uint64_t total = 0;
    for (const std::uint64_t records : streamed) total += records;
    return seconds > 0.0 ? static_cast<double>(total) / seconds : 0.0;
  };
  (void)round();  // warm-up, untimed
  for (int r = 0; r < kTimedRounds; ++r) run.rounds.push_back(round());
  std::vector<double> sorted = run.rounds;
  std::sort(sorted.begin(), sorted.end());
  run.median = sorted[sorted.size() / 2];
  return run;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) strict = true;
  }
  bench::header("Archive store: append, cold/hot query, concurrent scans",
                "§8 collector storage path (update archival at scale)");

  const fs::path dir = fs::temp_directory_path() / "gill_bench_archive";
  fs::remove_all(dir);
  fs::create_directories(dir);

  metrics::Registry registry;
  par::ThreadPool pool(1, &registry);  // the collectord archive-I/O pool
  archive::SegmentWriterConfig config;
  config.directory = dir.string();
  config.rotate_secs = kRotateSecs;
  config.compress = archive::compression_available();
  config.pool = &pool;
  config.registry = &registry;
  archive::SegmentWriter writer(config);
  if (!writer.open()) {
    std::fprintf(stderr, "error: cannot open archive at %s\n",
                 dir.string().c_str());
    return 1;
  }

  const bench::Stopwatch write_watch;
  for (std::uint64_t i = 0; i < kTotalRecords; ++i) {
    writer.store(synth_update(i));
  }
  writer.close();  // rotate + drain the I/O jobs: everything is on disk
  const double write_seconds = write_watch.seconds();
  if (writer.failed()) {
    std::fprintf(stderr, "error: writer failed mid-run\n");
    return 1;
  }
  const double records_per_sec =
      static_cast<double>(kTotalRecords) / write_seconds;
  const std::uint64_t bytes_written =
      registry.counter_total("gill_archive_bytes_written_total");

  // Cold query: a fresh engine with no pool and no cache loads the
  // manifest, prunes on the index and streams one VP's middle window on
  // this thread — the /v1/data request an operator issues.
  archive::QueryOptions options;
  options.vp = 3;
  options.start = 1000 + kRotateSecs * 4;
  options.end = 1000 + kRotateSecs * 6;
  const bench::Stopwatch query_watch;
  archive::QueryEngineConfig cold_config;
  cold_config.directory = dir.string();
  cold_config.registry = &registry;
  archive::QueryEngine cold_engine(cold_config);
  if (!cold_engine.open()) {
    std::fprintf(stderr, "error: cannot reopen archive for the query\n");
    return 1;
  }
  const auto cursor = cold_engine.query(options);
  std::string streamed;
  while (cursor->next_chunk(streamed)) {
  }
  const double query_seconds = query_watch.seconds();
  const std::uint64_t matched = cursor->records_streamed();
  const double streamed_per_sec =
      query_seconds > 0.0 ? static_cast<double>(matched) / query_seconds : 0.0;

  // Cold vs hot through the query engine: the first full scan loads (and
  // decompresses) every segment from disk into the cache; the repeats are
  // served from memory. Best-of-three on the hot side irons out scheduler
  // noise.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const std::size_t scan_threads = hw_threads >= 4 ? 4 : 1;
  double engine_cold_seconds = 0.0;
  double engine_hot_seconds = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_disk_reads = 0;
  {
    par::ThreadPool scan_pool(scan_threads, &registry);
    archive::SegmentCache cache(
        {.max_bytes = 512 * 1024 * 1024, .registry = &registry});
    archive::QueryEngineConfig engine_config;
    engine_config.directory = dir.string();
    engine_config.pool = &scan_pool;
    engine_config.cache = &cache;
    engine_config.registry = &registry;
    archive::QueryEngine engine(engine_config);
    if (!engine.open()) {
      std::fprintf(stderr, "error: cannot open the query engine\n");
      return 1;
    }
    const bench::Stopwatch cold_watch;
    const std::uint64_t cold_records = drain_engine(engine);
    engine_cold_seconds = cold_watch.seconds();
    if (cold_records != kTotalRecords) {
      std::fprintf(stderr, "error: cold engine scan streamed %llu of %llu\n",
                   static_cast<unsigned long long>(cold_records),
                   static_cast<unsigned long long>(kTotalRecords));
      return 1;
    }
    engine_hot_seconds = 1e9;
    for (int i = 0; i < 3; ++i) {
      const bench::Stopwatch hot_watch;
      drain_engine(engine);
      engine_hot_seconds = std::min(engine_hot_seconds, hot_watch.seconds());
    }
    cache_hits = cache.hits();
    cache_disk_reads = cache.disk_reads();
  }
  const double hot_speedup = engine_hot_seconds > 0.0
                                 ? engine_cold_seconds / engine_hot_seconds
                                 : 0.0;

  // Concurrent clients: same store, no cache, 1-thread vs 4-thread scan
  // pool. The ratio of the median rounds is what an operator gains from
  // cores when several GET /v1/data requests land at once.
  const ConcurrentRun run_pool1 =
      concurrent_throughput(dir.string(), 1, registry);
  const ConcurrentRun run_pool4 =
      concurrent_throughput(dir.string(), 4, registry);
  const double throughput_pool1 = run_pool1.median;
  const double throughput_pool4 = run_pool4.median;
  const double concurrent_scaling =
      throughput_pool1 > 0.0 ? throughput_pool4 / throughput_pool1 : 0.0;

  bench::row({"metric", "value"}, 30);
  bench::row({"records_appended", bench::num(kTotalRecords, 0)}, 30);
  bench::row({"segments_sealed",
              bench::num(static_cast<double>(writer.segments_sealed()), 0)},
             30);
  bench::row({"compressed", archive::compression_available() ? "yes" : "no"},
             30);
  bench::row({"bytes_written",
              bench::num(static_cast<double>(bytes_written), 0)}, 30);
  bench::row({"append_elapsed_s", bench::num(write_seconds, 3)}, 30);
  bench::row({"append_records_per_sec", bench::num(records_per_sec, 0)}, 30);
  bench::row({"query_matched_records",
              bench::num(static_cast<double>(matched), 0)}, 30);
  bench::row({"query_latency_ms", bench::num(query_seconds * 1000.0, 2)}, 30);
  bench::row({"query_records_per_sec", bench::num(streamed_per_sec, 0)}, 30);
  bench::row({"engine_cold_ms",
              bench::num(engine_cold_seconds * 1000.0, 2)}, 30);
  bench::row({"engine_hot_ms", bench::num(engine_hot_seconds * 1000.0, 2)},
             30);
  bench::row({"hot_speedup", bench::num(hot_speedup, 2)}, 30);
  bench::row({"cache_hits", bench::num(static_cast<double>(cache_hits), 0)},
             30);
  bench::row({"cache_disk_reads",
              bench::num(static_cast<double>(cache_disk_reads), 0)}, 30);
  bench::row({"concurrent_clients", bench::num(kConcurrentClients, 0)}, 30);
  bench::row({"throughput_pool1_rec_per_s",
              bench::num(throughput_pool1, 0)}, 30);
  bench::row({"throughput_pool4_rec_per_s",
              bench::num(throughput_pool4, 0)}, 30);
  bench::row({"concurrent_scaling", bench::num(concurrent_scaling, 2)}, 30);

  std::string json = "{\"bench\":\"archive\",";
  json += "\"records\":" + std::to_string(kTotalRecords) + ",";
  json += "\"segments_sealed\":" + std::to_string(writer.segments_sealed()) +
          ",";
  json += std::string("\"compressed\":") +
          (archive::compression_available() ? "true" : "false") + ",";
  json += "\"bytes_written\":" + std::to_string(bytes_written) + ",";
  json += "\"append_elapsed_s\":" + json_number(write_seconds) + ",";
  json += "\"append_records_per_sec\":" + json_number(records_per_sec) + ",";
  json += "\"query_matched_records\":" + std::to_string(matched) + ",";
  json += "\"query_latency_ms\":" + json_number(query_seconds * 1000.0) + ",";
  json += "\"query_records_per_sec\":" + json_number(streamed_per_sec) + ",";
  json += "\"engine_cold_ms\":" + json_number(engine_cold_seconds * 1000.0) +
          ",";
  json += "\"engine_hot_ms\":" + json_number(engine_hot_seconds * 1000.0) +
          ",";
  json += "\"hot_speedup\":" + json_number(hot_speedup) + ",";
  json += "\"cache_hits\":" + std::to_string(cache_hits) + ",";
  json += "\"cache_disk_reads\":" + std::to_string(cache_disk_reads) + ",";
  json += "\"concurrent_clients\":" + std::to_string(kConcurrentClients) + ",";
  json += "\"scans_per_client\":" + std::to_string(kScansPerClient) + ",";
  json += "\"throughput_pool1_records_per_sec\":" +
          json_number(throughput_pool1) + ",";
  json += "\"throughput_pool4_records_per_sec\":" +
          json_number(throughput_pool4) + ",";
  json += "\"throughput_pool1_rounds\":" + json_array(run_pool1.rounds) + ",";
  json += "\"throughput_pool4_rounds\":" + json_array(run_pool4.rounds) + ",";
  json += "\"concurrent_scaling\":" + json_number(concurrent_scaling) + ",";
  json += "\"hardware_threads\":" + std::to_string(hw_threads) + ",";
  json += "\"strict_append_records_per_sec_floor\":" +
          json_number(kStrictRecordsPerSecFloor) + ",";
  json += "\"strict_hot_speedup_floor\":" +
          json_number(kStrictHotSpeedupFloor) + ",";
  json += "\"strict_concurrent_scaling_floor\":" +
          json_number(kStrictConcurrentScalingFloor) + "}\n";
  std::FILE* out = std::fopen("BENCH_archive.json", "w");
  if (out != nullptr) {
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    bench::note("wrote BENCH_archive.json");
  } else {
    std::fprintf(stderr, "error: cannot write BENCH_archive.json\n");
    return 1;
  }
  fs::remove_all(dir);

  if (matched == 0) {
    std::fprintf(stderr, "FAIL: the cold query matched no records\n");
    return 1;
  }
  if (cache_hits == 0) {
    std::fprintf(stderr, "FAIL: the hot scans never hit the cache\n");
    return 1;
  }
  if (strict && records_per_sec < kStrictRecordsPerSecFloor) {
    std::fprintf(stderr, "FAIL: %.0f records/sec is below the %.0f floor\n",
                 records_per_sec, kStrictRecordsPerSecFloor);
    return 1;
  }
  if (strict && hot_speedup < kStrictHotSpeedupFloor) {
    std::fprintf(stderr,
                 "FAIL: hot/cold speedup %.2f is below the %.2f floor\n",
                 hot_speedup, kStrictHotSpeedupFloor);
    return 1;
  }
  if (strict && hw_threads >= 4 &&
      concurrent_scaling < kStrictConcurrentScalingFloor) {
    std::fprintf(stderr,
                 "FAIL: concurrent scaling %.2f is below the %.2f floor "
                 "(4-thread vs 1-thread scan pool)\n",
                 concurrent_scaling, kStrictConcurrentScalingFloor);
    return 1;
  }
  return 0;
}
