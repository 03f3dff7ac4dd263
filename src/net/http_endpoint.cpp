#include "net/http_endpoint.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <vector>

#include "net/tcp_transport.hpp"

namespace gill::net {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;

std::string_view status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string render(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += status_text(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  if (response.producer) {
    out += "\r\nTransfer-Encoding: chunked";
    out += "\r\nConnection: close\r\n\r\n";
    return out;  // chunks follow as the socket drains
  }
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string url_decode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '%' && i + 2 < in.size()) {
      const int hi = hex_digit(in[i + 1]);
      const int lo = hex_digit(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += in[i] == '+' ? ' ' : in[i];
  }
  return out;
}

HttpRequest parse_target(std::string_view target) {
  HttpRequest request;
  const std::size_t question = target.find('?');
  request.path = std::string(target.substr(0, question));
  if (question == std::string_view::npos) return request;
  std::string_view rest = target.substr(question + 1);
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (!pair.empty()) {
      request.query[url_decode(pair.substr(0, eq))] =
          eq == std::string_view::npos ? std::string()
                                       : url_decode(pair.substr(eq + 1));
    }
    if (amp == std::string_view::npos) break;
    rest = rest.substr(amp + 1);
  }
  return request;
}

std::string encode_chunk(const std::string& data) {
  char size_line[32];
  const int n =
      std::snprintf(size_line, sizeof size_line, "%zx\r\n", data.size());
  std::string out(size_line, static_cast<std::size_t>(n));
  out += data;
  out += "\r\n";
  return out;
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

metrics::Registry& resolve(metrics::Registry* registry) {
  return registry != nullptr ? *registry : metrics::default_registry();
}

}  // namespace

HttpResponse error_response(int status, std::string_view code,
                            std::string_view message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\":{\"code\":\"";
  append_json_escaped(response.body, code);
  response.body += "\",\"message\":\"";
  append_json_escaped(response.body, message);
  response.body += "\"}}";
  return response;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

HttpEndpoint::HttpEndpoint(EventLoop& loop, metrics::Registry* registry)
    : loop_(&loop),
      registry_(resolve(registry)),
      listener_(std::make_unique<TcpListener>(loop, &registry_)),
      requests_(registry_.counter("gill_net_http_requests_total",
                                  "HTTP requests answered with 200")),
      bad_requests_(registry_.counter(
          "gill_net_http_bad_requests_total",
          "HTTP requests rejected (parse error, bad method, unknown path)")),
      idle_evictions_(registry_.counter(
          "gill_net_http_idle_evictions_total",
          "HTTP connections dropped for inactivity (stalled readers)")) {}

HttpEndpoint::~HttpEndpoint() { close(); }

bool HttpEndpoint::route(std::string path, Handler handler) {
  return route(std::move(path),
               RouteHandler([handler = std::move(handler)](
                   const HttpRequest&) { return handler(); }));
}

bool HttpEndpoint::route(std::string path, RouteHandler handler) {
  if (routes_.contains(path)) return false;
  routes_.emplace(std::move(path), std::move(handler));
  return true;
}

void HttpEndpoint::serve_metrics(const metrics::Registry& registry) {
  route("/v1/metrics", [&registry] {
    HttpResponse response;
    response.content_type = kPrometheusContentType;
    response.body = registry.expose_prometheus();
    return response;
  });
}

bool HttpEndpoint::listen(const std::string& host, std::uint16_t port) {
  const bool ok = listener_->listen(
      host, port, [this](int fd, std::string, std::uint16_t) { on_accept(fd); });
  if (ok && idle_timeout_ms_ > 0 && sweep_timer_ == 0) {
    // Sweep a few times per timeout so the worst-case overstay is a
    // fraction of the configured limit, not double it.
    const std::uint64_t interval =
        std::max<std::uint64_t>(50, idle_timeout_ms_ / 4);
    sweep_timer_ = loop_->call_every(interval, [this] { sweep_idle(); });
  }
  return ok;
}

void HttpEndpoint::close() {
  if (sweep_timer_ != 0) {
    loop_->cancel(sweep_timer_);
    sweep_timer_ = 0;
  }
  listener_->close();
  while (!connections_.empty()) drop(connections_.begin()->first);
}

bool HttpEndpoint::listening() const noexcept {
  return listener_->listening();
}

std::uint16_t HttpEndpoint::port() const noexcept { return listener_->port(); }

void HttpEndpoint::wake(StreamId id) {
  const auto it = streams_.find(id);
  if (it == streams_.end()) return;
  const auto connection = connections_.find(it->second);
  if (connection == connections_.end() || !connection->second.responding) {
    return;
  }
  // A parked stream pulls its producer again; a stream mid-send simply
  // retries the flush (harmless if EPOLLOUT would have resumed it anyway).
  flush(connection->second);
}

void HttpEndpoint::close_stream(StreamId id) {
  const auto it = streams_.find(id);
  if (it == streams_.end()) return;
  drop(it->second);
}

void HttpEndpoint::on_accept(int fd) {
  Connection connection;
  connection.fd = fd;
  connection.last_activity_ms = loop_->now_ms();
  connections_.emplace(fd, std::move(connection));
  loop_->add(fd, kReadable,
             [this, fd](std::uint32_t events) { on_event(fd, events); });
}

void HttpEndpoint::on_event(int fd, std::uint32_t events) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& connection = it->second;
  if (events & kReadable) {
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n > 0) {
        connection.last_activity_ms = loop_->now_ms();
        if (!connection.responding) {
          connection.in.append(buffer, static_cast<std::size_t>(n));
        }
        continue;  // a response in flight: drain and ignore extra bytes
      }
      if (n == 0) {  // client closed before/while we answer
        if (!connection.responding || connection.live) {
          // No request to answer — or a live stream whose consumer left:
          // nobody is reading, so the subscription ends here.
          drop(fd);
          return;
        }
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      drop(fd);
      return;
    }
    if (!connection.responding) {
      if (connection.in.size() > kMaxRequestBytes) {
        bad_requests_.inc();
        connection.out =
            render(error_response(400, "bad_request", "request too large"));
        connection.responding = true;
      } else if (connection.in.find("\r\n\r\n") != std::string::npos) {
        handle_request(connection);
      }
    }
  }
  if (connection.responding) flush(connection);
}

void HttpEndpoint::handle_request(Connection& connection) {
  HttpResponse response;
  const std::string_view request(connection.in);
  const std::size_t line_end = request.find("\r\n");
  const std::string_view line = request.substr(0, line_end);
  const std::size_t method_end = line.find(' ');
  const std::size_t target_end =
      method_end == std::string_view::npos
          ? std::string_view::npos
          : line.find(' ', method_end + 1);
  if (method_end == std::string_view::npos ||
      target_end == std::string_view::npos) {
    bad_requests_.inc();
    response = error_response(400, "bad_request", "malformed request line");
  } else {
    const std::string_view method = line.substr(0, method_end);
    const std::string_view target =
        line.substr(method_end + 1, target_end - method_end - 1);
    const HttpRequest parsed = parse_target(target);
    const auto it = routes_.find(parsed.path);
    if (method != "GET") {
      bad_requests_.inc();
      response = error_response(405, "method_not_allowed",
                                "only GET is supported");
    } else if (it != routes_.end()) {
      response = it->second(parsed);
      requests_.inc();
    } else {
      bad_requests_.inc();
      response = error_response(404, "not_found", "no such route");
    }
  }
  connection.out = render(response);
  connection.producer = std::move(response.producer);
  connection.live = response.live && connection.producer != nullptr;
  connection.responding = true;
  if (connection.live) {
    connection.stream_id = next_stream_id_++;
    streams_[connection.stream_id] = connection.fd;
    if (response.on_stream) response.on_stream(connection.stream_id);
  }
}

void HttpEndpoint::flush(Connection& connection) {
  const int fd = connection.fd;
  connection.parked = false;
  for (;;) {
    while (connection.out_offset < connection.out.size()) {
      const ssize_t n =
          ::send(fd, connection.out.data() + connection.out_offset,
                 connection.out.size() - connection.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        connection.out_offset += static_cast<std::size_t>(n);
        connection.last_activity_ms = loop_->now_ms();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        loop_->modify(fd, kReadable | kWritable);
        return;  // EPOLLOUT resumes the flush
      }
      drop(fd);
      return;
    }
    // Everything queued so far is on the wire. In chunked mode, pull the
    // producer for the next chunk — one chunk in memory at a time.
    if (connection.producer && !connection.final_chunk_queued) {
      connection.out.clear();
      connection.out_offset = 0;
      std::string chunk;
      const bool more = connection.producer(chunk);
      if (more && !chunk.empty()) {
        connection.out = encode_chunk(chunk);
        continue;
      }
      if (more && connection.live) {
        // Live stream with nothing pending: park with the connection open
        // and fully drained; wake(stream_id) resumes delivery. Quiet, not
        // stalled — the idle sweep leaves parked streams alone.
        connection.parked = true;
        connection.last_activity_ms = loop_->now_ms();
        loop_->modify(fd, kReadable);  // only client-close interest remains
        return;
      }
      connection.out = "0\r\n\r\n";  // terminating chunk
      connection.final_chunk_queued = true;
      continue;
    }
    drop(fd);  // Connection: close — one response per connection
    return;
  }
}

void HttpEndpoint::drop(int fd) {
  const auto it = connections_.find(fd);
  if (it != connections_.end() && it->second.stream_id != 0) {
    streams_.erase(it->second.stream_id);
  }
  loop_->remove(fd);
  ::close(fd);
  connections_.erase(fd);
}

void HttpEndpoint::sweep_idle() {
  if (idle_timeout_ms_ == 0) return;
  const std::uint64_t now = loop_->now_ms();
  std::vector<int> stale;
  for (const auto& [fd, connection] : connections_) {
    // Idle means no *socket* progress while work is pending: an unfinished
    // request, or response bytes the peer will not read. A parked live
    // stream has delivered everything and owes nothing — a quiet feed must
    // not cost a subscriber its connection.
    if (connection.parked) continue;
    if (now - connection.last_activity_ms >= idle_timeout_ms_) {
      stale.push_back(fd);
    }
  }
  for (const int fd : stale) {
    idle_evictions_.inc();
    drop(fd);  // releases the fd and any chunk producer (segment reader)
  }
}

}  // namespace gill::net
