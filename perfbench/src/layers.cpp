// The traced run's in-process replay: the workload's own inputs fed through
// each layer's public entry point on one core (the refresh stages on the
// merge plane's pool), once bare and once with a span per call. Per-layer
// costs come from the bare pass; self times and the span file from the
// traced one; the difference between the two is the tracing overhead.
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "archive/archive_writer.hpp"
#include "archive/query_engine.hpp"
#include "collector.hpp"
#include "collector/sharded.hpp"
#include "daemon/daemon.hpp"
#include "feed/live_feed.hpp"
#include "mrt/mrt.hpp"
#include "net/event_loop.hpp"
#include "net/http_endpoint.hpp"
#include "net/stream.hpp"
#include "parallel/thread_pool.hpp"
#include "wire/messages.hpp"
#include "workloads.hpp"

namespace pb {

using namespace gill;

namespace {

/// Messages handed to the daemon per poll() call.
constexpr std::size_t kPollBatch = 64;
/// Updates published between two drains of the local subscriber.
constexpr std::size_t kPublishBatch = 256;
/// Archive built for workloads without one of their own.
constexpr std::uint64_t kReplayArchiveBytes = 32ull * 1024 * 1024;
constexpr bgp::Timestamp kReplayArchiveSpanSecs = 4 * 3600;
constexpr std::size_t kReplayQueries = 20;

/// The archive tee as the collector wires it (LockedSink over the
/// SegmentWriter), with a span around every store().
class TracedSink : public mrt::Sink {
 public:
  TracedSink(mrt::Sink* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  void store(const bgp::Update& update) override {
    traced(tracer_, "archive.store", [&] { inner_->store(update); });
  }
  void store_rib_entry(const bgp::Update& entry) override {
    inner_->store_rib_entry(entry);
  }

 private:
  mrt::Sink* inner_;
  Tracer* tracer_;
};

/// A segment writer configured as gill-collectord configures it: 900 s
/// windows, raw codec, one I/O worker.
struct ArchiveTee {
  explicit ArchiveTee(const std::string& directory) : io(1, &registry) {
    archive::SegmentWriterConfig config;
    config.directory = directory;
    config.pool = &io;
    config.registry = &registry;
    writer = std::make_unique<archive::SegmentWriter>(std::move(config));
    opened = writer->open();
    sink = std::make_unique<collect::LockedSink>(writer.get());
  }
  ~ArchiveTee() { writer->close(); }

  metrics::Registry registry;
  par::ThreadPool io;
  std::unique_ptr<archive::SegmentWriter> writer;
  std::unique_ptr<collect::LockedSink> sink;
  bool opened = false;
};

/// A StreamHub with one subscriber on a loopback socket that this thread
/// drains between publish batches.
class LocalStream {
 public:
  LocalStream(StreamFormat format, std::string* error)
      : http_(loop_, &registry_), hub_(http_, net::StreamConfig{}, &registry_) {
    if (!http_.listen("127.0.0.1", 0)) {
      *error = "cannot listen for the local stream";
      return;
    }
    client_ = connect_loopback(http_.port());
    const std::string request =
        std::string("GET ") +
        (format == StreamFormat::kMrt ? "/v1/stream?format=mrt"
                                      : "/v1/stream") +
        " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (client_ < 0 || !send_all(client_, request, now_s() + 5)) {
      *error = "cannot subscribe to the local stream";
      return;
    }
    const double deadline = now_s() + 5;
    while (hub_.subscriber_count() == 0 && now_s() < deadline) {
      loop_.run_once(5);
    }
    if (hub_.subscriber_count() == 0) *error = "local subscription failed";
  }
  ~LocalStream() {
    if (client_ >= 0) ::close(client_);
  }
  LocalStream(const LocalStream&) = delete;
  LocalStream& operator=(const LocalStream&) = delete;

  net::StreamHub& hub() { return hub_; }
  metrics::Registry& registry() { return registry_; }

  /// Lets the endpoint flush and reads everything the subscriber got.
  void drain() {
    char buffer[65536];
    for (int round = 0; round < 64; ++round) {
      loop_.run_once(0);
      bool got = false;
      while (::recv(client_, buffer, sizeof buffer, 0) > 0) got = true;
      if (!got && hub_.queue_bytes() == 0) return;
    }
  }

 private:
  metrics::Registry registry_;
  net::EventLoop loop_;
  net::HttpEndpoint http_;
  net::StreamHub hub_;
  int client_ = -1;
};

/// Seconds spent in `fn`.
template <typename F>
double timed(F&& fn) {
  const double start = now_s();
  fn();
  return now_s() - start;
}

/// The ingest path: decode, daemon poll (with the stores and mirror it
/// drives), RIB, MRT writer, archive tee, live-feed encoding, stream fan-out.
void replay_ingest_layers(const std::vector<SessionPool>& pools,
                          StreamFormat format, const std::string& dir,
                          Tracer& tracer, Result& result, ReplayTimes& times) {
  std::vector<const bgp::Update*> updates;
  for (const auto& pool : pools) {
    for (const auto& update : pool.updates) updates.push_back(&update);
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, updates.size()));
  std::map<std::string, double> layer_s;
  std::size_t sink_bytes = 0;

  const auto pass = [&](Tracer* spans, const std::string& pass_dir) {
    // wire::decode over every pre-encoded message.
    layer_s["wire.decode"] = timed([&] {
      std::size_t decoded = 0;
      for (const auto& pool : pools) {
        std::size_t offset = 0;
        const auto* data =
            reinterpret_cast<const std::uint8_t*>(pool.bytes.data());
        for (std::size_t i = 0; i < pool.size(); ++i) {
          traced(spans, "wire.decode", [&] {
            std::size_t consumed = 0;
            if (wire::decode(std::span(data + offset, pool.bytes.size() - offset),
                             consumed)) {
              ++decoded;
            }
            offset += consumed;
          });
        }
      }
      if (decoded != updates.size()) result.problem("wire::decode failed");
    });

    // BgpDaemon::poll on an in-memory transport, wired like a collector
    // session: GR negotiated, empty filter table, in-memory MRT store,
    // archive tee, mirror + stream outbox tap.
    {
      metrics::Registry registry;
      daemon::Transport transport;
      daemon::MrtStore store;
      filt::FilterTable filters;
      ArchiveTee tee(pass_dir + "/poll-archive");
      TracedSink archive(tee.sink.get(), spans);
      daemon::BgpDaemon session(0, 65000, transport, &filters, &store,
                                &registry);
      session.set_graceful_restart(daemon::GracefulRestartConfig{});
      session.set_archive(&archive);
      bgp::UpdateStream mirror;
      std::vector<bgp::Update> outbox;
      session.set_mirror([&](const bgp::Update& update) {
        traced(spans, "collector.mirror", [&] {
          mirror.push(update);
          outbox.push_back(update);
        });
      });
      daemon::FakePeer peer(65001, transport);
      peer.enable_graceful_restart();
      session.start(1);
      for (int i = 0; i < 16 && session.state() !=
                                    daemon::SessionState::kEstablished;
           ++i) {
        peer.poll();
        session.poll(1);
      }
      if (session.state() != daemon::SessionState::kEstablished) {
        result.problem("in-memory session did not establish");
      }
      layer_s["daemon.poll"] = timed([&] {
        for (const auto& pool : pools) {
          for (std::size_t first = 0; first < pool.size();
               first += kPollBatch) {
            const std::size_t last = std::min(pool.size(), first + kPollBatch);
            const std::size_t begin = first == 0 ? 0 : pool.ends[first - 1];
            transport.to_daemon.write(
                {reinterpret_cast<const std::uint8_t*>(pool.bytes.data()) +
                     begin,
                 pool.ends[last - 1] - begin});
            traced(spans, "daemon.poll", [&] { session.poll(1); });
            outbox.clear();
          }
        }
      });
      transport.to_peer.clear();
      const auto stats = session.stats();
      result.set("daemon.updates_received",
                 static_cast<double>(stats.updates_received), "count");
      result.set("daemon.decode_errors",
                 static_cast<double>(stats.decode_errors), "count");
      if (stats.updates_received != updates.size() || stats.decode_errors) {
        result.problem("in-memory session lost updates");
      }
      if (!tee.opened) result.problem("cannot open the replay archive");
    }

    layer_s["bgp.rib_apply"] = timed([&] {
      bgp::Rib rib;
      for (const auto* update : updates) {
        traced(spans, "bgp.rib_apply", [&] { rib.apply(*update); });
      }
    });

    layer_s["mrt.write_update"] = timed([&] {
      mrt::Writer writer;
      for (const auto* update : updates) {
        traced(spans, "mrt.write_update", [&] { writer.write_update(*update); });
      }
      sink_bytes = writer.buffer().size();
    });

    {
      ArchiveTee tee(pass_dir + "/store-archive");
      layer_s["archive.store"] = timed([&] {
        for (const auto* update : updates) {
          traced(spans, "archive.store",
                 [&] { tee.sink->store(*update); });
        }
      });
    }

    layer_s["feed.encode_live"] = timed([&] {
      std::size_t bytes = 0;
      for (const auto* update : updates) {
        traced(spans, "feed.encode_live",
               [&] { bytes += feed::encode_live_update(*update).size(); });
      }
      if (bytes == 0) result.problem("feed::encode_live_update wrote nothing");
    });

    {
      std::string error;
      LocalStream stream(format, &error);
      if (!error.empty()) {
        result.problem(error);
        return;
      }
      double publish_s = 0;
      for (std::size_t first = 0; first < updates.size();
           first += kPublishBatch) {
        const std::size_t last = std::min(updates.size(), first + kPublishBatch);
        publish_s += timed([&] {
          for (std::size_t i = first; i < last; ++i) {
            traced(spans, "net.stream_publish",
                   [&] { stream.hub().publish(*updates[i]); });
          }
        });
        stream.drain();
      }
      layer_s["net.stream_publish"] = publish_s;
      result.set("net.stream_max_queue_bytes",
                 static_cast<double>(stream.hub().max_subscriber_queue_bytes()),
                 "B");
      result.set("net.stream_dropped_msgs",
                 stream.registry()
                     .counter("gill_stream_dropped_msgs_total", "")
                     .value(),
                 "count");
      result.set("net.stream_evictions",
                 stream.registry().counter("gill_stream_evictions_total", "")
                     .value(),
                 "count");
    }
  };

  const double plain = timed([&] { pass(nullptr, dir + "/plain"); });
  const std::map<std::string, double> plain_layers = layer_s;
  const double with_spans = timed([&] { pass(&tracer, dir + "/traced"); });
  times.plain_s += plain;
  times.traced_s += with_spans;

  const auto per_update_ns = [&](const char* layer) {
    const auto it = plain_layers.find(layer);
    return it == plain_layers.end() ? 0.0 : it->second * 1e9 / n;
  };
  result.set("wire.decode_ns_per_update", per_update_ns("wire.decode"), "ns");
  result.set("daemon.poll_ns_per_update", per_update_ns("daemon.poll"), "ns");
  result.set("bgp.rib_apply_ns_per_update", per_update_ns("bgp.rib_apply"),
             "ns");
  result.set("mrt.write_update_ns_per_update",
             per_update_ns("mrt.write_update"), "ns");
  result.set("mrt.store_bytes_per_update",
             static_cast<double>(sink_bytes) / n, "B");
  result.set("archive.store_ns_per_update", per_update_ns("archive.store"),
             "ns");
  result.set("feed.encode_live_ns_per_update",
             per_update_ns("feed.encode_live"), "ns");
  result.set("net.stream_publish_ns_per_update",
             per_update_ns("net.stream_publish"), "ns");
  const auto totals = tracer.totals();
  const auto poll = totals.find("daemon.poll");
  result.set("daemon.poll_self_ns_per_update",
             poll == totals.end() ? 0.0 : poll->second.self_ns / n, "ns");
}

/// The archive read side: planning and draining each query through a
/// QueryEngine over the collector's default 64 MiB cache, scans inline.
void replay_archive_layers(const std::string& archive_dir,
                           const std::vector<Query>& queries, Tracer& tracer,
                           Result& result, ReplayTimes& times) {
  const auto pass = [&](Tracer* spans, bool report) {
    metrics::Registry registry;
    archive::SegmentCacheConfig cache_config;
    cache_config.max_bytes = 64 * 1024 * 1024;  // the collector's default
    cache_config.registry = &registry;
    archive::SegmentCache cache(cache_config);
    archive::SegmentPins pins;
    archive::QueryEngineConfig config;
    config.directory = archive_dir;
    config.cache = &cache;
    config.pins = &pins;
    config.registry = &registry;
    archive::QueryEngine engine(config);
    if (!engine.open()) {
      result.problem("cannot open the archive for the replay");
      return;
    }
    double plan_s = 0;
    double scan_s = 0;
    std::uint64_t records = 0;
    std::uint64_t planned = 0;
    for (const auto& query : queries) {
      std::shared_ptr<archive::EngineCursor> cursor;
      plan_s += timed([&] {
        traced(spans, "archive.query_plan",
               [&] { cursor = engine.query(query.options); });
      });
      std::uint64_t matched = 0;
      scan_s += timed([&] {
        traced(spans, "archive.scan", [&] {
          std::string chunk;
          MrtFramer framer;
          while (cursor->next_chunk(chunk)) {
            framer.consume(chunk, [&](std::string_view) { ++matched; });
          }
        });
      });
      if (matched != query.expected) {
        result.problem("replayed query " + query.target + " returned " +
                       std::to_string(matched) + " records, expected " +
                       std::to_string(query.expected));
      }
      records += matched;
      planned += cursor->planned_segments();
    }
    if (!report) return;
    const double count =
        static_cast<double>(std::max<std::size_t>(1, queries.size()));
    result.set("archive.query_plan_us", plan_s * 1e6 / count, "us");
    result.set("archive.scan_ns_per_record",
               records > 0 ? scan_s * 1e9 / static_cast<double>(records) : 0,
               "ns");
    result.set("archive.segments_planned", static_cast<double>(planned) / count,
               "count");
    const double scanned = static_cast<double>(engine.segments_scanned());
    const double pruned = static_cast<double>(engine.segments_pruned());
    result.set("archive.prune_ratio",
               scanned + pruned > 0 ? pruned / (scanned + pruned) : 0, "ratio");
    const double lookups = static_cast<double>(cache.hits() + cache.misses());
    result.set("archive.cache_hit_ratio",
               lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0,
               "ratio");
    result.set("archive.cache_disk_reads",
               static_cast<double>(cache.disk_reads()), "count");
  };
  times.plain_s += timed([&] { pass(nullptr, true); });
  times.traced_s += timed([&] { pass(&tracer, false); });
}

}  // namespace

void trace_layers(const Options& options, const bgp::UpdateStream& updates,
                  StreamFormat format, const bgp::UpdateStream& training,
                  const bgp::UpdateStream& next, const std::string& archive_dir,
                  const std::vector<Query>& queries, Result& result) {
  Tracer tracer;
  ReplayTimes times;
  const std::string dir = options.workdir + "/trace";
  make_dirs(dir);

  replay_ingest_layers(make_session_pools(updates, 3, format), format, dir,
                       tracer, result, times);

  std::string replay_dir = archive_dir;
  std::vector<Query> replay_queries = queries;
  if (replay_dir.empty()) {
    ArchiveModel model;
    replay_dir = dir + "/archive";
    if (!model.build(updates, kReplayArchiveBytes, kReplayArchiveSpanSecs) ||
        !model.write(replay_dir)) {
      result.problem("cannot build the replay archive");
    }
    replay_queries =
        model.make_queries(mix_seed(options.seed, 99), kReplayQueries);
  }
  replay_archive_layers(replay_dir, replay_queries, tracer, result, times);
  replay_refresh_layers(training, next, tracer, result, times);

  // Serving-only figures default to zero; the serving workloads overwrite
  // them with what their collector launch measured.
  for (const char* name : {"net.read_pauses", "generator.send_lag_p50_ms",
                           "generator.send_lag_p99_ms",
                           "collector.stream_wait_ms_p50",
                           "cost_model.unaccounted_share"}) {
    if (!result.has(name)) {
      result.set(name, 0.0,
                 std::string(name).find("_ms") != std::string::npos ? "ms"
                 : std::string(name) == "net.read_pauses"           ? "count"
                                                                    : "ratio");
    }
  }
  result.set("trace.overhead_share",
             times.plain_s > 0 ? (times.traced_s - times.plain_s) / times.plain_s
                               : 0,
             "ratio");
  result.note("tracing overhead: replay " + std::to_string(times.plain_s) +
              " s bare, " + std::to_string(times.traced_s) + " s with " +
              std::to_string(tracer.spans().size()) + " spans");
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".spans";
  if (make_dirs(options.trace_dir) &&
      tracer.write(path, "perfbench spans, workload " + options.workload)) {
    result.note("spans written to " + path);
  } else {
    result.problem("cannot write spans to " + path);
  }
  remove_tree(dir);
}

}  // namespace pb
