// The live collector daemon (§8): the GILL platform behind real sockets.
// Listens for inbound BGP peerings (and optionally BMP feeds, RFC 7854)
// over TCP, drives the sessions from one ingest event loop on its own
// thread (DESIGN.md §14) and serves the versioned operator plane over
// HTTP from a separate control loop: GET /v1/metrics (Prometheus),
// GET /v1/healthz (JSON peer health), the archive retrieval routes
// (/v1/data, /v1/segments) and the live distribution plane
// (GET /v1/stream — every accepted update fanned out to filtered
// subscribers in real time). The pre-/v1 unversioned spellings had a
// one-release grace window as aliases and now answer 404.
//
//   gill-collectord --listen-port 1790 --http-port 9179 &
//   curl -s localhost:9179/v1/metrics | grep gill_collector_peers
//   curl -N 'localhost:9179/v1/stream?prefix=10.0.0.0/8'
//
// Single-threaded ingest by design (DESIGN.md §7/§14): every session's and
// BMP feed's transport, decoder and RIB, the filter table and the archive's
// writes live on the ingest thread, so the hot path never takes a lock; the
// merge plane harvests the ingest mirror for the sampling pipeline.
#include <csignal>
#include <cstdio>
#include <ctime>
#include <memory>
#include <span>

#include "archive/archive_writer.hpp"
#include "archive/query_engine.hpp"
#include "cli_util.hpp"
#include "collector/archive_routes.hpp"
#include "collector/platform.hpp"
#include "collector/sharded.hpp"
#include "net/event_loop.hpp"
#include "net/http_endpoint.hpp"
#include "net/stream.hpp"
#include "parallel/thread_pool.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

constexpr const char* kUsage =
    "usage: gill-collectord [options]\n"
    "  --listen-port N        BGP listen port (default 1790; 179 needs root)\n"
    "  --bmp-port N           BMP listen port (default: disabled)\n"
    "  --http-port N          HTTP port for the /v1 operator plane (default 9179)\n"
    "  --bind IP              bind address, IPv4 or IPv6 (default 0.0.0.0)\n"
    "  --dial HOST:PORT:ASN   dial an outbound peering (repeatable; IPv6\n"
    "                         hosts in brackets: [::1]:1790:65001)\n"
    "  --local-as N           our AS number (default 65000)\n"
    "  --max-peers N          refuse connections while N BGP sessions and\n"
    "                         BMP feeds are open (default 4096)\n"
    "  --tick-ms N            session timer tick: hold, keepalive, GR, RIB\n"
    "                         dumps, rotation and refresh (default 200);\n"
    "                         updates are decoded and streamed as they arrive\n"
    "  --analysis-threads N   worker pool for filter refreshes: -1 auto,\n"
    "                         0 synchronous on the control loop (default -1)\n"
    "  --archive-dir DIR      rotated on-disk segment store; serves GET /v1/data\n"
    "                         and GET /v1/segments on the HTTP port\n"
    "  --rotate-secs N        segment rotation boundary (default 900)\n"
    "  --archive-compress     zstd-compress segment payloads at seal time\n"
    "                         (raw fallback when the build lacks zstd)\n"
    "  --archive-cache-bytes N  hot-segment cache budget over decompressed\n"
    "                         payloads (default 64 MiB; 0 disables)\n"
    "  --archive-query-threads N  scan pool for /v1/data: -1 auto, 0 scans\n"
    "                         inline on the control loop (default -1)\n"
    "  --archive-max-bytes N  retention: delete oldest windows while the\n"
    "                         store exceeds N payload bytes (default off)\n"
    "  --archive-max-age-secs N  retention: delete windows older than N\n"
    "                         seconds (default off)\n"
    "  --snapshot-secs N      per-session RIB snapshot period into the\n"
    "                         segment store, seconds (default off)\n"
    "  --duration N           run N seconds then exit (default: until SIGINT)\n"
    "  --gr-timeout N         graceful-restart stale retention window, seconds\n"
    "                         (default 120; 0 disables RFC 4724 GR)\n"
    "  --max-peer-rate N      per-peer ingest cap, bytes/second (default off)\n"
    "  --queue-watermark N    per-peer inbound queue high watermark, bytes;\n"
    "                         reads pause above it (default 1 MiB; 0 off)\n"
    "  --accept-rate N        per-source accepts/second before new\n"
    "                         connections are refused (default off)\n"
    "  --mem-watermark N      process RSS bytes that trigger degraded mode\n"
    "                         (defer refreshes/snapshots, shed weakest VPs;\n"
    "                         default off)\n"
    "  --stream-max-subscribers N  concurrent /v1/stream subscribers before\n"
    "                         new ones get 503 (default 1024)\n"
    "  --stream-queue-bytes N per-subscriber queue high watermark, bytes;\n"
    "                         slow readers are trimmed above it and evicted\n"
    "                         if they never drain (default 1 MiB)\n"
    "  --metrics <path|->     dump the Prometheus exposition at exit\n";

/// Splits a --dial target HOST:PORT:ASN (host may be a bracketed IPv6
/// literal, so parse from the right). Returns false on malformed input.
bool parse_dial_target(const std::string& spec, std::string& host,
                       std::uint16_t& port, gill::bgp::AsNumber& asn) {
  const std::size_t asn_colon = spec.rfind(':');
  if (asn_colon == std::string::npos || asn_colon == 0) return false;
  const std::size_t port_colon = spec.rfind(':', asn_colon - 1);
  if (port_colon == std::string::npos || port_colon == 0) return false;
  host = spec.substr(0, port_colon);
  const long port_value =
      std::strtol(spec.c_str() + port_colon + 1, nullptr, 10);
  const long asn_value = std::strtol(spec.c_str() + asn_colon + 1, nullptr, 10);
  if (port_value <= 0 || port_value > 65535 || asn_value <= 0) return false;
  port = static_cast<std::uint16_t>(port_value);
  asn = static_cast<gill::bgp::AsNumber>(asn_value);
  return !host.empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gill;
  const cli::Args args(argc, argv);
  if (args.has("help")) cli::usage(kUsage);

  const std::string bind_ip = args.get("bind", "0.0.0.0");
  const auto listen_port =
      static_cast<std::uint16_t>(args.get_int("listen-port", 1790));
  const long bmp_port = args.get_int("bmp-port", 0);
  const auto http_port =
      static_cast<std::uint16_t>(args.get_int("http-port", 9179));
  const auto local_as =
      static_cast<bgp::AsNumber>(args.get_int("local-as", 65000));
  const long max_peers = args.get_int("max-peers", 4096);
  const long tick_ms = args.get_int("tick-ms", 200);
  const long analysis_threads = args.get_int("analysis-threads", -1);
  const long duration = args.get_int("duration", 0);
  const std::string archive_dir = args.get("archive-dir", "");
  const long rotate_secs = args.get_int("rotate-secs", 900);
  const bool archive_compress = args.has("archive-compress");
  const long archive_cache_bytes =
      args.get_int("archive-cache-bytes", 64 * 1024 * 1024);
  const long archive_query_threads = args.get_int("archive-query-threads", -1);
  const long archive_max_bytes = args.get_int("archive-max-bytes", 0);
  const long archive_max_age_secs = args.get_int("archive-max-age-secs", 0);
  const long snapshot_secs = args.get_int("snapshot-secs", 0);
  const long gr_timeout = args.get_int("gr-timeout", 120);
  const long max_peer_rate = args.get_int("max-peer-rate", 0);
  const long queue_watermark = args.get_int("queue-watermark", 1024 * 1024);
  const long accept_rate = args.get_int("accept-rate", 0);
  const long mem_watermark = args.get_int("mem-watermark", 0);
  const long stream_max_subscribers =
      args.get_int("stream-max-subscribers", 1024);
  const long stream_queue_bytes =
      args.get_int("stream-queue-bytes", 1024 * 1024);

  metrics::Registry& registry = metrics::default_registry();
  // The control loop: HTTP, stream fan-out, the archive's query side and
  // retention, and the merge cadence. BGP sessions, BMP feeds and the
  // archive's writes live on the ingest loop.
  // Destruction order matters: the loop must outlive every fd owner below.
  net::EventLoop loop;
  // The merged filter refresh runs on this pool so the control loop never
  // stalls mid-pipeline (DESIGN.md §9/§14); 0 threads runs it inline.
  std::unique_ptr<par::ThreadPool> analysis_pool;
  const std::size_t analysis_pool_threads =
      analysis_threads < 0 ? par::auto_thread_count()
                           : static_cast<std::size_t>(analysis_threads);
  if (analysis_pool_threads > 0) {
    analysis_pool =
        std::make_unique<par::ThreadPool>(analysis_pool_threads, &registry);
  }

  // Wall-clock seconds, the collector's one clock: sessions stamp their
  // updates with it, BMP feeds clamp their per-peer times to it, and the
  // archive rotates and ages segments by it. Rotation and retention
  // compare it with record times, so they must share the sessions' time
  // base — a loop-relative clock would never seal an idle window.
  const auto now_seconds = [] {
    return static_cast<bgp::Timestamp>(std::time(nullptr));
  };

  collect::ShardedPlatformConfig config;
  config.clock = now_seconds;
  config.platform.local_as = local_as;
  config.platform.registry = &registry;
  config.analysis_pool = analysis_pool.get();
  // RFC 4724 graceful restart: a flapping peer's RIB is retained as stale
  // for --gr-timeout seconds and resynced by delta instead of replayed.
  config.platform.gr.enabled = gr_timeout > 0;
  if (gr_timeout > 0) {
    config.platform.gr.max_stale_time = static_cast<bgp::Timestamp>(gr_timeout);
    config.platform.gr.restart_time = static_cast<std::uint16_t>(
        gr_timeout < 4095 ? gr_timeout : 4095);  // 12-bit wire field
  }
  if (mem_watermark > 0) {
    config.platform.overload.mem_high_watermark =
        static_cast<std::size_t>(mem_watermark);
  }
  // Per-peer ingest policing: a token bucket caps bytes/second and a
  // bounded inbound queue pauses EPOLLIN above the high watermark (real
  // TCP backpressure — the sender's window closes, not our memory). Both
  // police each session and BMP feed, on the ingest thread, lock-free.
  config.ingest_limits.max_bytes_per_sec = static_cast<double>(max_peer_rate);
  config.ingest_limits.queue_high_watermark =
      queue_watermark > 0 ? static_cast<std::size_t>(queue_watermark) : 0;
  config.max_peers = static_cast<std::size_t>(max_peers);
  // Per-source accept rate cap: a reconnect storm is refused before it
  // reaches the session layer.
  config.accept_rate = static_cast<double>(accept_rate);
  config.on_session = [](bgp::VpId vp, const std::string& peer_ip) {
    const bool bmp = vp >= collect::Platform::kFirstBmpVp;
    std::fprintf(stderr, "[collectord] vp%u %s from %s\n", vp,
                 bmp ? "BMP feed" : "peering", peer_ip.c_str());
  };
  // Per-session RIB snapshots land in the segment store (--archive-dir).
  if (snapshot_secs > 0) {
    config.rib_dump_interval = static_cast<bgp::Timestamp>(snapshot_secs);
  }
  collect::ShardedPlatform platform(config);

  // The on-disk segment store (§8: "stores the collected BGP updates in a
  // public database"). Disk I/O runs on a one-worker pool so the event
  // loop never blocks in write()/fsync(); the writer serializes its jobs
  // anyway, so one worker loses nothing.
  // Destruction runs in reverse declaration order, and it matters: the
  // writer's retention jobs invalidate the cache (cache after writer is
  // destroyed-before — so declare cache FIRST), engine cursors scan on the
  // query pool through cache and pins, and the engine itself dies before
  // any of them.
  std::unique_ptr<par::ThreadPool> archive_pool;        // writer I/O (1 thread)
  std::unique_ptr<par::ThreadPool> archive_query_pool;  // /v1/data scans
  std::unique_ptr<archive::SegmentCache> archive_cache;
  std::unique_ptr<archive::SegmentPins> archive_pins;
  std::unique_ptr<archive::SegmentWriter> archive_writer;
  std::unique_ptr<archive::QueryEngine> archive_engine;
  if (!archive_dir.empty()) {
    archive_pool = std::make_unique<par::ThreadPool>(1, &registry);
    archive::SegmentWriterConfig archive_config;
    archive_config.directory = archive_dir;
    archive_config.rotate_secs = static_cast<bgp::Timestamp>(
        rotate_secs > 0 ? rotate_secs : 900);
    archive_config.compress = archive_compress;
    archive_config.pool = archive_pool.get();
    archive_config.registry = &registry;
    archive_writer =
        std::make_unique<archive::SegmentWriter>(std::move(archive_config));
    if (!archive_writer->open()) {
      std::fprintf(stderr, "error: cannot open archive dir %s\n",
                   archive_dir.c_str());
      return 1;
    }
    if (archive_compress && !archive::compression_available()) {
      std::fprintf(stderr,
                   "[collectord] warning: --archive-compress but this build "
                   "lacks zstd; sealing raw\n");
    }
    // The query plane (DESIGN.md §15): ONE engine shared by every request,
    // refreshed only when the writer's manifest generation moves — not a
    // fresh manifest load per GET like the old per-request reader.
    const std::size_t query_threads =
        archive_query_threads < 0
            ? par::auto_thread_count()
            : static_cast<std::size_t>(archive_query_threads);
    if (query_threads > 0) {
      archive_query_pool =
          std::make_unique<par::ThreadPool>(query_threads, &registry);
    }
    archive::SegmentCacheConfig cache_config;
    cache_config.max_bytes = archive_cache_bytes > 0
                                 ? static_cast<std::size_t>(archive_cache_bytes)
                                 : 0;
    cache_config.registry = &registry;
    archive_cache = std::make_unique<archive::SegmentCache>(cache_config);
    archive_pins = std::make_unique<archive::SegmentPins>();
    archive::QueryEngineConfig engine_config;
    engine_config.directory = archive_dir;
    engine_config.pool = archive_query_pool.get();
    engine_config.cache = archive_cache.get();
    engine_config.pins = archive_pins.get();
    engine_config.registry = &registry;
    archive_engine = std::make_unique<archive::QueryEngine>(engine_config);
    if (!archive_engine->open()) {
      std::fprintf(stderr, "error: cannot open archive dir %s\n",
                   archive_dir.c_str());
      return 1;
    }
  }
  // Only the ingest thread writes the archive, rotation included; this
  // thread keeps what the writer guards itself (manifest generation,
  // retention) and close(), after the ingest loop stops.
  if (archive_writer) platform.set_archive(archive_writer.get());

  // The BGP and BMP listeners live on the ingest loop, where admission
  // (the live-connection cap, the accept governor) runs too.
  if (!platform.listen(bind_ip, listen_port)) {
    std::fprintf(stderr, "error: cannot listen on %s:%u\n", bind_ip.c_str(),
                 listen_port);
    return 1;
  }
  if (bmp_port > 0 &&
      !platform.listen_bmp(bind_ip, static_cast<std::uint16_t>(bmp_port))) {
    std::fprintf(stderr, "error: cannot listen on %s:%ld (BMP)\n",
                 bind_ip.c_str(), bmp_port);
    return 1;
  }

  // Outbound peerings (--dial): we initiate the TCP connection, so these
  // sessions re-dial on teardown (retry policy armed, unlike accepted
  // peers where the remote re-establishes).
  for (const std::string& spec : args.get_all("dial")) {
    std::string host;
    std::uint16_t port = 0;
    bgp::AsNumber asn = 0;
    if (!parse_dial_target(spec, host, port, asn)) {
      std::fprintf(stderr, "error: bad --dial target '%s' "
                   "(want HOST:PORT:ASN)\n", spec.c_str());
      return 1;
    }
    if (!platform.dial(host, port, asn)) {
      std::fprintf(stderr, "error: cannot dial %s\n", spec.c_str());
      return 1;
    }
    std::fprintf(stderr, "[collectord] dialing %s:%u (AS%u)\n",
                 host.c_str(), port, asn);
  }

  net::HttpEndpoint http(loop, &registry);
  http.serve_metrics(registry);
  http.route("/v1/healthz", [&platform] {
    net::HttpResponse response;
    response.content_type = "application/json";
    response.body = collect::to_json(platform.health_snapshot());
    return response;
  });
  if (archive_engine) {
    // Data-retrieval plane: /v1/data streams framed MRT through the shared
    // query engine — bloom-pruned, scanned in parallel, served from the
    // hot-segment cache, and the cursor pins its snapshot so retention
    // never deletes under it. /v1/segments lists the same snapshot.
    collect::route_archive(http, *archive_engine);
  }

  // The live distribution plane (GET /v1/stream): every accepted update —
  // BGP sessions and BMP feeds alike — fans out to filtered subscribers.
  net::StreamConfig stream_config;
  stream_config.max_subscribers =
      stream_max_subscribers > 0
          ? static_cast<std::size_t>(stream_max_subscribers)
          : 0;
  if (stream_queue_bytes > 0) {
    stream_config.queue_high_bytes =
        static_cast<std::size_t>(stream_queue_bytes);
  }
  net::StreamHub stream_hub(http, stream_config, &registry);
  platform.set_stream_publisher(
      [&stream_hub](std::span<const bgp::Update> batch) {
        stream_hub.publish(batch);
      });

  if (!http.listen(bind_ip, http_port)) {
    std::fprintf(stderr, "error: cannot listen on %s:%u (HTTP)\n",
                 bind_ip.c_str(), http_port);
    return 1;
  }

  // The ingest loop decodes a session's or feed's bytes in the readable
  // event that read them; its timer wheel keeps the timers (hold,
  // keepalive, GR, RIB dumps, memory watermark, socket sync, archive
  // rotation). The control tick here runs the merge cadence and follows
  // the manifest; the stream hand-off runs after every pass of this loop
  // (see below).
  platform.start(static_cast<std::uint64_t>(tick_ms));
  std::uint64_t seen_manifest_generation = 0;
  loop.call_every(static_cast<std::uint64_t>(tick_ms), [&] {
    platform.control_tick(now_seconds());
    if (archive_writer) {
      // The engine re-reads the manifest only when it actually changed
      // (seal or GC) — the whole point of the shared engine over the old
      // per-request reader.
      const std::uint64_t generation = archive_writer->manifest_generation();
      if (generation != seen_manifest_generation) {
        seen_manifest_generation = generation;
        archive_engine->refresh();
      }
    }
  });
  // Retention/GC runs on its own slower cadence as a serialized writer job
  // (never racing a seal); deleted files leave the cache immediately.
  archive::RetentionPolicy retention_policy;
  retention_policy.max_bytes =
      archive_max_bytes > 0 ? static_cast<std::uint64_t>(archive_max_bytes)
                            : 0;
  retention_policy.max_age_secs =
      archive_max_age_secs > 0
          ? static_cast<bgp::Timestamp>(archive_max_age_secs)
          : 0;
  if (archive_writer && retention_policy.enabled()) {
    loop.call_every(5000, [&] {
      archive_writer->run_retention(
          retention_policy, archive_pins.get(), now_seconds(),
          [cache = archive_cache.get(),
           directory = archive_dir](const std::string& file) {
            cache->invalidate(directory, file);
          });
    });
  }
  if (duration > 0) {
    loop.call_after(static_cast<std::uint64_t>(duration) * 1000,
                    [&loop] { loop.stop(); });
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::fprintf(stderr,
               "[collectord] AS%u: BGP on %s:%u%s, HTTP on %s:%u "
               "(/v1/metrics, /v1/healthz, /v1/stream)\n",
               local_as, bind_ip.c_str(), platform.port(),
               bmp_port > 0 ? " (+BMP)" : "", bind_ip.c_str(), http.port());
  // The stream hand-off rides the loop's own wakeups: with timers armed,
  // run_once() returns at least once per 10 ms wheel step, and every pass
  // moves the ingest outbox into the hub as one batch (one flush per
  // subscriber). No wakeup per update.
  while (!loop.stopped() && g_stop == 0) {
    loop.run_once(100);
    platform.drain_stream();
  }

  // Quiesce the ingest loop first: once its thread is joined, every
  // harvest below runs single-threaded.
  platform.stop();
  std::fprintf(stderr,
               "[collectord] shutting down: %zu peers, %zu updates stored\n",
               platform.peer_count(), platform.stored_updates());
  // Drain every asynchronous producer BEFORE the final metrics dump: the
  // archive writer's in-flight disk jobs and any merged filter refresh
  // still on the analysis pool would otherwise mutate counters after (or
  // while) the exposition is rendered — the dump must reflect the run.
  platform.wait_for_refresh();
  if (archive_writer) {
    archive_writer->close();  // seal the active segment + wait for I/O
    std::fprintf(stderr, "[collectord] archive: %llu segments sealed in %s\n",
                 static_cast<unsigned long long>(
                     archive_writer->segments_sealed()),
                 archive_dir.c_str());
  }
  if (args.has("metrics") && !cli::dump_metrics(args.get("metrics", "-"))) {
    return 1;
  }
  return 0;
}
