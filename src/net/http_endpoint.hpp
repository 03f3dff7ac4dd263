// Minimal HTTP/1.1 server for the operator/data plane. The surface is
// versioned (`/v1/...`): GET /v1/metrics (Prometheus text exposition
// straight from a metrics::Registry), GET /v1/healthz (JSON), the archive's
// data-retrieval routes (/v1/data, /v1/segments) and the live distribution
// plane (/v1/stream, see net/stream.hpp). Deliberately tiny: GET only, no
// keep-alive (Connection: close), 8 KiB request cap, one response per
// connection. A Prometheus scraper, `curl` and a streaming consumer are the
// entire client population.
//
// Errors are uniform JSON envelopes: {"error":{"code":"...","message":
// "..."}} with the matching status code (400 malformed request/params, 404
// unknown route, 405 non-GET) — see error_response().
//
// Three response shapes exist. A plain response carries its whole body and
// is sent with Content-Length. A *streaming* response sets `producer`: the
// body is then sent with Transfer-Encoding: chunked, and the producer is
// pulled for the next chunk only as the socket drains — a query over a
// large archive never materializes in server memory. A *live* response
// additionally sets `live`: an empty pull then parks the connection open
// (waiting for future data) instead of terminating the stream; the data
// source wakes it with wake(stream_id) when bytes become available, or ends
// it with close_stream(stream_id).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "metrics/metrics.hpp"
#include "net/event_loop.hpp"

namespace gill::net {

/// One parsed GET request: the path and its percent-decoded query
/// parameters (`/v1/data?start=5&vp=2` -> path "/v1/data", query
/// {start: "5", vp: "2"}).
struct HttpRequest {
  std::string path;
  std::map<std::string, std::string> query;

  /// The parameter's value, or nullptr when absent.
  const std::string* get(const std::string& key) const {
    const auto it = query.find(key);
    return it != query.end() ? &it->second : nullptr;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  /// Streaming body: appends the next chunk to its argument and returns
  /// true while more data may follow; false ends the stream, and so does
  /// an empty append unless `live` is set. When set, `body` is ignored and
  /// the response is chunked.
  using ChunkProducer = std::function<bool(std::string&)>;
  ChunkProducer producer;

  /// Live (continuous-chunked) mode: an empty pull parks the connection
  /// open instead of ending the stream. The producer's owner is handed the
  /// connection's stream id via `on_stream` and re-arms delivery with
  /// HttpEndpoint::wake(); producer returning false still ends the stream.
  bool live = false;
  std::function<void(std::uint64_t stream_id)> on_stream;
};

/// Builds the uniform JSON error envelope
/// {"error":{"code":code,"message":message}} with `status`.
HttpResponse error_response(int status, std::string_view code,
                            std::string_view message);

/// Strict full-string decimal parse (no sign, no whitespace, no trailing
/// junk, no overflow) — the validation the /v1/data query params need.
bool parse_u64(std::string_view text, std::uint64_t* out);

/// Prometheus exposition content type (text format v0.0.4).
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

class HttpEndpoint {
 public:
  using Handler = std::function<HttpResponse()>;
  using RouteHandler = std::function<HttpResponse(const HttpRequest&)>;
  /// Identity of one live (parked) streaming connection. Never reused
  /// within an endpoint's lifetime — unlike the fd, which the kernel
  /// recycles — so a stale wake()/close_stream() can never hit the wrong
  /// connection.
  using StreamId = std::uint64_t;

  explicit HttpEndpoint(EventLoop& loop,
                        metrics::Registry* registry = nullptr);
  ~HttpEndpoint();
  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Registers a GET route for an exact path; queries are ignored. Returns
  /// false (and registers nothing) when the path is already taken — a
  /// duplicate registration is a wiring bug, never a silent overwrite.
  bool route(std::string path, Handler handler);
  /// Registers a GET route that sees the parsed request (query params) and
  /// may answer with a streaming (chunked) response.
  bool route(std::string path, RouteHandler handler);
  /// Convenience: routes GET /v1/metrics to
  /// `registry.expose_prometheus()` with the v0.0.4 content type.
  /// `registry` must outlive the endpoint.
  void serve_metrics(const metrics::Registry& registry);

  /// Binds and starts serving. `host` may be an IPv4 literal, an IPv6
  /// literal, or a bracketed IPv6 literal ("[::1]"). Port 0 picks an
  /// ephemeral port (see port()).
  bool listen(const std::string& host, std::uint16_t port);
  void close();
  bool listening() const noexcept;
  std::uint16_t port() const noexcept;

  /// Re-attempts delivery on a live connection (typically after its
  /// producer's source queued new data). Unknown/finished ids are ignored.
  void wake(StreamId id);
  /// Drops a live connection (subscriber eviction). Unknown ids ignored.
  void close_stream(StreamId id);

  /// Evicts connections with no read *or* send progress for `timeout_ms`.
  /// A stalled `GET /v1/data` reader would otherwise pin its fd — and, in
  /// chunked mode, the archive segment its producer holds — forever. A
  /// *parked* live stream (every queued byte delivered, no data pending)
  /// is idle-exempt: quiet is not stalled; only a connection with bytes it
  /// cannot push (or a request it never completes) is swept.
  /// 0 disables the sweep. Takes effect at the next listen().
  void set_idle_timeout_ms(std::uint64_t timeout_ms) {
    idle_timeout_ms_ = timeout_ms;
  }

  std::size_t open_connections() const noexcept { return connections_.size(); }

 private:
  struct Connection {
    int fd = -1;
    std::string in;
    std::string out;
    std::size_t out_offset = 0;
    bool responding = false;
    HttpResponse::ChunkProducer producer;  // chunked mode when set
    bool final_chunk_queued = false;
    bool live = false;    // continuous-chunked mode (live stream)
    bool parked = false;  // live stream drained; waiting for wake()
    StreamId stream_id = 0;
    std::uint64_t last_activity_ms = 0;
  };

  void on_accept(int fd);
  void on_event(int fd, std::uint32_t events);
  void handle_request(Connection& connection);
  void flush(Connection& connection);
  void drop(int fd);
  void sweep_idle();

  EventLoop* loop_;
  metrics::Registry& registry_;
  std::unique_ptr<class TcpListener> listener_;
  std::map<std::string, RouteHandler> routes_;
  std::map<int, Connection> connections_;
  std::map<StreamId, int> streams_;  // live stream id -> fd
  StreamId next_stream_id_ = 1;
  std::uint64_t idle_timeout_ms_ = 60000;
  EventLoop::TimerId sweep_timer_ = 0;
  metrics::Counter& requests_;
  metrics::Counter& bad_requests_;
  metrics::Counter& idle_evictions_;
};

}  // namespace gill::net
