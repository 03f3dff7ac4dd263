// The live streaming distribution plane (GET /v1/stream): the third leg of
// the platform beside ingest and the archive. Isolario's do-ut-des model
// (PAPERS.md) argues a collector attracts vantage points by serving
// filtered live feeds back to its users; RIS Live is the deployed shape.
// Every UPDATE the platform accepts is fanned out in real time to many
// concurrent HTTP subscribers, each with its own filter compiled from the
// request's query parameters:
//
//   curl -N 'host:9179/v1/stream?prefix=10.0.0.0/8&format=json'
//   params: vp=N            only this vantage point
//           prefix=CIDR     equal-or-more-specific prefixes (like /v1/data)
//           aspath=REGEX    POSIX-extended regex over "65010 65020 64500"
//           community=A:B   updates carrying this RFC 1997 community
//           format=json|mrt NDJSON live-feed documents (default) or raw
//                           framed MRT records
//
// Backpressure (DESIGN.md §12): each subscriber owns a bounded ByteQueue
// with high/low watermarks. Encoding happens once per update per format;
// enqueueing is a byte append. A subscriber whose queue is full has its
// *new* messages trimmed (dropped whole — framing never tears) until the
// queue drains below the low watermark; one that keeps dropping without
// ever draining (a stalled socket) is evicted. Slow readers therefore cost
// drops and eventually their subscription — never collector memory, and
// never another subscriber's latency.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <regex>
#include <span>
#include <string>
#include <vector>

#include "bgp/update.hpp"
#include "daemon/daemon.hpp"
#include "metrics/metrics.hpp"
#include "net/http_endpoint.hpp"

namespace gill::net {

/// One subscriber's filter, compiled from the /v1/stream query parameters.
/// All present clauses must match (conjunction); an empty subscription
/// matches everything (the full firehose).
struct StreamSubscription {
  enum class Format : std::uint8_t { kJson, kMrt };

  std::optional<bgp::VpId> vp;
  std::optional<net::Prefix> prefix;  // equal-or-more-specific, like /v1/data
  std::optional<std::regex> aspath;   // over AsPath::str(): "65010 65020 ..."
  std::string aspath_text;            // the source pattern (diagnostics)
  std::optional<bgp::Community> community;
  Format format = Format::kJson;

  /// Compiles the query parameters; on failure returns nullopt and stores
  /// a human-readable reason in `error` (the 400 envelope message).
  static std::optional<StreamSubscription> parse(const HttpRequest& request,
                                                 std::string* error);

  bool matches(const bgp::Update& update) const;
};

struct StreamConfig {
  /// Concurrent /v1/stream subscribers before new ones get 503.
  std::size_t max_subscribers = 1024;
  /// Per-subscriber queue high watermark: enqueues that would cross it are
  /// trimmed instead (the queue itself never exceeds it).
  std::size_t queue_high_bytes = 1 << 20;
  /// Trim mode ends once the queue drains below this; 0 = high / 2.
  std::size_t queue_low_bytes = 0;
  /// Consecutive trimmed messages (queue never draining in between) before
  /// the subscriber is evicted as stalled.
  std::size_t evict_after_drops = 4096;
};

/// Fans accepted updates out to every live /v1/stream subscriber. Lives on
/// the event-loop thread with the HttpEndpoint it serves through — publish,
/// subscribe and drain all run there, so no state is locked.
class StreamHub {
 public:
  /// `http` must outlive the hub. Registers GET /v1/stream; returns false
  /// if the path was already taken.
  StreamHub(HttpEndpoint& http, StreamConfig config = {},
            metrics::Registry* registry = nullptr);

  /// Registers the routes (called by the constructor; exposed so tests can
  /// assert the duplicate-rejection contract).
  bool register_routes();

  /// Fans one accepted update out to every matching subscriber and flushes
  /// them at once. Encodes at most once per format, regardless of
  /// subscriber count.
  void publish(const bgp::Update& update);
  /// Fans a batch out in order, encoding each update at most once per
  /// format. Each subscriber that received bytes is flushed once, at the
  /// end of the batch, or earlier whenever a chunk's worth has queued up
  /// since its last flush, so a batch larger than the queue watermark
  /// never trims a subscriber that keeps reading.
  void publish(std::span<const bgp::Update> batch);

  std::size_t subscriber_count() const;
  /// Bytes currently queued across all subscribers.
  std::size_t queue_bytes() const;
  /// Largest single-subscriber queue ever observed (bench/tests assert it
  /// stays at or below the configured high watermark).
  std::size_t max_subscriber_queue_bytes() const noexcept {
    return max_subscriber_queue_bytes_;
  }
  const StreamConfig& config() const noexcept { return config_; }

 private:
  /// One live subscriber: its compiled filter, its bounded byte queue and
  /// its delivery state. Owned by the HTTP connection's producer closure
  /// (shared_ptr); the hub holds weak references and prunes expired ones,
  /// so a dropped connection is the single point of truth for lifetime.
  struct Subscriber {
    Subscriber(StreamSubscription subscription, metrics::Gauge& subscribers,
               metrics::Gauge& queue_bytes);
    ~Subscriber();

    StreamSubscription subscription;
    daemon::ByteQueue queue;
    HttpEndpoint::StreamId stream_id = 0;
    bool trimming = false;  // above high watermark: new messages dropped
    bool evicted = false;   // producer ends the stream on next pull
    std::size_t drops_in_a_row = 0;
    std::size_t unflushed_bytes = 0;  // queued since the last flush
    metrics::Gauge& subscribers_gauge;
    metrics::Gauge& queue_bytes_gauge;
  };

  HttpResponse subscribe(const HttpRequest& request);
  /// Enqueues one update to every matching subscriber (trim/evict rules
  /// applied). Returns true when a subscriber expired or was evicted.
  bool fan_out(const bgp::Update& update);
  void flush(Subscriber& subscriber);
  void prune_expired();

  HttpEndpoint* http_;
  StreamConfig config_;
  metrics::Registry& registry_;
  std::vector<std::weak_ptr<Subscriber>> subscribers_;
  std::size_t max_subscriber_queue_bytes_ = 0;
  metrics::Counter& fanout_msgs_;
  metrics::Counter& dropped_msgs_;
  metrics::Counter& evictions_;
  metrics::Counter& rejected_;
  metrics::Gauge& subscribers_gauge_;
  metrics::Gauge& queue_bytes_gauge_;
};

}  // namespace gill::net
