// The serving workloads: ingest_firehose and ingest_paced push BGP
// sessions into a launched gill-collectord and read every update back from
// /v1/stream; archive_query runs two /v1/data clients against a preloaded
// segment store. One single-threaded generator (this process) drives the
// load, with at most four connections open at once.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>

#include "collector.hpp"
#include "harness/interarrival.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace pb {

using namespace gill;

namespace {

constexpr std::size_t kSessions = 3;
/// 2,000 VPs at the paper's average of 28K updates/hour: ~15.6k updates/s.
constexpr double kPacedUpdatesPerSec = 2000.0 * 28000.0 / 3600.0;
/// The generator's own lag (first send attempt minus scheduled time) whose
/// p99 marks a paced run invalid: far below the 200 ms session tick that
/// sets stream latency, so a valid run's latency is the collector's.
constexpr double kMaxGeneratorLagMs = 5.0;
/// The firehose pushes this many updates per second of --seconds, as fast
/// as TCP backpressure allows: about the collector's measured capacity on
/// a 4-thread machine, so a run lasts about --seconds.
constexpr double kFirehoseUpdatesPerSec = 140000.0;
/// Updates a firehose session keeps in flight (sent, not yet seen on the
/// stream), about 3 MB: enough that the session's 1 MiB read queue reaches
/// its watermark, bounded so that latency measures the collector rather
/// than how much the kernel's socket buffers happen to hold.
constexpr std::uint64_t kFirehoseInFlight = 50000;
/// Lead time before the first scheduled update of a paced launch.
constexpr double kScheduleLeadS = 0.02;
constexpr double kDrainTimeoutS = 60.0;
constexpr double kSetupTimeoutS = 30.0;
constexpr std::size_t kSendChunk = 256 * 1024;
constexpr std::size_t kRecvChunk = 256 * 1024;
/// The ingest workloads' updates come from one 2-hour window (~23k
/// updates), sent cyclically.
constexpr bgp::Timestamp kUpdateWindowSecs = 2 * 3600;
/// archive_query: about 3x the collector's default 64 MiB segment cache,
/// over 16 hours of logical time (~64 segments of 900 s), built from
/// copies of one 3-hour window (which always holds the 16,000 updates a
/// copy takes).
constexpr std::uint64_t kArchiveBytes = 3ull * 64 * 1024 * 1024;
constexpr bgp::Timestamp kArchiveSpanSecs = 16 * 3600;
constexpr bgp::Timestamp kArchiveBaseSecs = 3 * 3600;
constexpr std::size_t kQueryClients = 2;
constexpr std::size_t kQueriesPerClient = 4096;
/// Each client runs this many blocks of ten queries per second of
/// --seconds (about its closed-loop rate on a 4-thread machine): a fixed
/// amount of work, so every run serves the same class mix.
constexpr double kQueryBlocksPerSec = 1.5;

/// An owned socket.
class Socket {
 public:
  Socket() = default;
  ~Socket() { reset(); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  void reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

void wait_readable(int fd, int timeout_ms) {
  pollfd entry{fd, POLLIN, 0};
  ::poll(&entry, 1, timeout_ms);
}

/// Waits on `fds` for at most `timeout_s` with sub-millisecond resolution.
void wait_any(std::vector<pollfd>& fds, double timeout_s) {
  const double clamped = std::max(0.0, timeout_s);
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(clamped);
  timeout.tv_nsec = static_cast<long>((clamped - std::floor(clamped)) * 1e9);
  ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
}

/// A /v1/stream subscriber handing out complete records (NDJSON lines or
/// framed MRT records).
class StreamReader {
 public:
  bool open(std::uint16_t port, StreamFormat format, double deadline,
            std::string* error) {
    format_ = format;
    socket_.reset(connect_loopback(port));
    if (socket_.fd() < 0) {
      *error = "cannot connect the stream subscriber";
      return false;
    }
    const std::string request =
        std::string("GET ") +
        (format == StreamFormat::kMrt ? "/v1/stream?format=mrt"
                                      : "/v1/stream") +
        " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (!send_all(socket_.fd(), request, deadline)) {
      *error = "cannot send the stream request";
      return false;
    }
    buffer_.resize(kRecvChunk);
    while (!parser_.headers_done()) {
      if (now_s() > deadline) {
        *error = "no /v1/stream response";
        return false;
      }
      const ssize_t n = ::recv(socket_.fd(), buffer_.data(), buffer_.size(), 0);
      if (n > 0) {
        if (!parser_.feed(buffer_.data(), static_cast<std::size_t>(n),
                          payload_)) {
          *error = "malformed /v1/stream response";
          return false;
        }
      } else if (n == 0) {
        *error = "collector closed the stream";
        return false;
      } else {
        wait_readable(socket_.fd(), 10);
      }
    }
    if (parser_.status() != 200) {
      *error = "/v1/stream answered " + std::to_string(parser_.status());
      return false;
    }
    return true;
  }

  /// Drains the socket; false when the stream broke or ended.
  template <typename F>
  bool pump(F&& on_record) {
    for (;;) {
      const ssize_t n = ::recv(socket_.fd(), buffer_.data(), buffer_.size(), 0);
      if (n > 0) {
        if (!parser_.feed(buffer_.data(), static_cast<std::size_t>(n),
                          payload_)) {
          return false;
        }
        split(on_record);
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }

  int fd() const { return socket_.fd(); }

 private:
  template <typename F>
  void split(F& on_record) {
    if (format_ == StreamFormat::kMrt) {
      framer_.consume(payload_, on_record);
      return;
    }
    std::size_t at = 0;
    for (;;) {
      const std::size_t newline = payload_.find('\n', at);
      if (newline == std::string::npos) break;
      on_record(std::string_view(payload_.data() + at, newline + 1 - at));
      at = newline + 1;
    }
    payload_.erase(0, at);
  }

  Socket socket_;
  StreamFormat format_ = StreamFormat::kJson;
  HttpResponseParser parser_;
  std::string payload_;
  std::vector<char> buffer_;
  MrtFramer framer_;
};

/// One BGP session of the generator.
struct Sender {
  Socket socket;
  const SessionPool* pool = nullptr;
  std::size_t pos = 0;        // next unsent byte of pool->bytes
  std::size_t next = 0;       // pool index of the next message to complete
  std::uint64_t written = 0;  // messages fully handed to the kernel
  std::uint64_t received = 0; // records seen on the stream
  std::uint64_t total = 0;    // messages this launch sends
  std::uint64_t due = 0;      // messages that may be sent now
  std::vector<double> sent_at;   // firehose: message k fully written
  std::vector<double> schedule;  // paced: message k due
  bool broken = false;

  /// Writes the due messages (the pool cyclically). True while the socket
  /// refused bytes that are ready.
  bool send_some(bool paced) {
    const std::size_t count = pool->size();
    for (;;) {
      if (written >= due) return false;
      const std::uint64_t batch =
          std::min<std::uint64_t>(due - written, count - next);
      const std::size_t limit =
          std::min(pool->ends[next + batch - 1], pos + kSendChunk);
      const ssize_t n = ::send(socket.fd(), pool->bytes.data() + pos,
                               limit - pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        broken = true;
        return false;
      }
      pos += static_cast<std::size_t>(n);
      const double now = now_s();
      while (next < count && pool->ends[next] <= pos) {
        if (!paced) sent_at.push_back(now);
        ++written;
        ++next;
      }
      if (next == count) {
        next = 0;
        pos = 0;
      }
    }
  }

  /// Discards what the collector sends on the session (KEEPALIVEs,
  /// End-of-RIB); false when it closed the session.
  bool drain() {
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(socket.fd(), buffer, sizeof buffer, 0);
      if (n > 0) continue;
      if (n == 0) return false;
      if (errno == EINTR) continue;
      return true;
    }
  }
};

std::uint32_t json_vp(std::string_view line, bool* ok) {
  const std::size_t at = line.find("\"vp\":");
  *ok = at != std::string_view::npos;
  std::uint32_t vp = 0;
  for (std::size_t i = at + 5; *ok && i < line.size() && line[i] >= '0' &&
                               line[i] <= '9';
       ++i) {
    vp = vp * 10 + static_cast<std::uint32_t>(line[i] - '0');
  }
  return vp;
}

/// Counters scraped from /v1/metrics at the end of a launch (each launch
/// starts a fresh collector, so they cover exactly that launch).
struct Scrape {
  double updates_received = 0;
  double decode_errors = 0;
  double read_pauses = 0;
  double stream_dropped = 0;
  double stream_evictions = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double segments_scanned = 0;
  double segments_pruned = 0;
  double queries = 0;

  void add(const std::string& text) {
    updates_received += metric_sum(text, "gill_daemon_updates_received_total");
    decode_errors += metric_sum(text, "gill_daemon_decode_errors_total");
    read_pauses += metric_sum(text, "gill_overload_read_pauses_total");
    stream_dropped += metric_sum(text, "gill_stream_dropped_msgs_total");
    stream_evictions += metric_sum(text, "gill_stream_evictions_total");
    cache_hits += metric_sum(text, "gill_archive_cache_hits_total");
    cache_misses += metric_sum(text, "gill_archive_cache_misses_total");
    segments_scanned +=
        metric_sum(text, "gill_archive_engine_segments_scanned_total");
    segments_pruned +=
        metric_sum(text, "gill_archive_engine_segments_pruned_total");
    queries += metric_sum(text, "gill_archive_engine_queries_total");
  }
};

/// What one collector launch measured.
struct Launch {
  double setup_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;
  double busy_s = 0;        // first send/request to last record
  std::uint64_t ops = 0;    // updates sent / records served
  std::uint64_t failed = 0; // updates missing or wrong / queries wrong
  double p50_ms = 0;

  /// Takes this launch's median from the samples it appended.
  void set_latencies(const std::vector<double>& all, std::size_t first) {
    p50_ms = quantile(
        std::vector<double>(all.begin() + static_cast<std::ptrdiff_t>(first),
                            all.end()),
        0.5);
  }
};

std::string stamp_line(const std::string& dir) {
  std::string flags;
  for (const auto& flag : Collector::flags(dir + "/archive")) {
    flags += (flags.empty() ? "" : " ") + flag;
  }
  return "collector flags: " + flags;
}

// ---------------------------------------------------------------------------
// ingest_firehose / ingest_paced

bool ingest_launch(const Options& options, bool paced, StreamFormat format,
                   const std::vector<SessionPool>& pools, double window,
                   std::size_t index, const std::string& dir, Launch& launch,
                   std::vector<double>& latencies, std::vector<double>& lags,
                   Scrape& scrape, Result& result) {
  const double setup_start = now_s();
  const double deadline = setup_start + kSetupTimeoutS;
  Collector collector;
  std::string error;
  if (!collector.start(options.collector, dir, &error)) {
    result.problem(error);
    return false;
  }
  StreamReader subscriber;
  if (!subscriber.open(collector.http_port(), format, deadline, &error)) {
    result.problem(error);
    return false;
  }
  // Connected in order so the collector numbers the sessions' VPs 0, 1, 2
  // (the stream checks below verify it record by record).
  std::vector<Sender> senders(pools.size());
  for (std::size_t s = 0; s < senders.size(); ++s) {
    senders[s].pool = &pools[s];
    senders[s].socket.reset(connect_loopback(collector.bgp_port()));
    if (senders[s].socket.fd() < 0 ||
        !bgp_open(senders[s].socket.fd(), pools[s].as, deadline, &error)) {
      result.problem("session " + std::to_string(s) + ": " + error);
      return false;
    }
  }
  for (auto& sender : senders) {
    if (!bgp_await(sender.socket.fd(), deadline, &error)) {
      result.problem(error);
      return false;
    }
  }
  launch.setup_s = now_s() - setup_start;

  const double cpu_start = collector.cpu_seconds();
  const double start = now_s();
  if (paced) {
    const double rate = kPacedUpdatesPerSec / static_cast<double>(kSessions);
    const auto count = static_cast<std::size_t>(std::llround(rate * window));
    for (std::size_t s = 0; s < senders.size(); ++s) {
      harness::InterarrivalConfig config;
      config.mean_rate_per_sec = rate;
      config.seed = mix_seed(options.seed, 1000 * index + s);
      harness::LongMemoryScheduler scheduler(config);
      for (const double offset_ms : scheduler.pace(count, window * 1000.0)) {
        senders[s].schedule.push_back(start + kScheduleLeadS +
                                      offset_ms / 1000.0);
      }
      senders[s].total = count;
    }
  } else {
    // Closed loop: a fixed number of updates, all due at once.
    const auto count = static_cast<std::uint64_t>(std::llround(
        kFirehoseUpdatesPerSec / static_cast<double>(kSessions) * window));
    for (auto& sender : senders) {
      sender.total = count;
      sender.sent_at.reserve(count);
    }
  }

  std::uint64_t mismatches = 0;
  double now = start;
  double last_record = start;
  const auto on_record = [&](std::string_view record) {
    std::uint32_t vp = 0;
    bool ok = true;
    if (format == StreamFormat::kJson) {
      vp = json_vp(record, &ok);
    } else {
      ok = record.size() >= 16;
      if (ok) vp = MrtFramer::be32(record.data() + 12);
    }
    if (!ok || vp >= senders.size()) {
      ++mismatches;
      return;
    }
    Sender& sender = senders[vp];
    const std::uint64_t k = sender.received++;
    if (k >= sender.written) {
      ++mismatches;
      return;
    }
    if (!record_matches(*sender.pool, k % sender.pool->size(), record)) {
      ++mismatches;
    }
    const double sent = paced ? sender.schedule[k] : sender.sent_at[k];
    latencies.push_back((now - sent) * 1000.0);
    last_record = now;
  };

  const double send_end = start + window;
  bool stream_ok = true;
  std::vector<pollfd> fds;
  for (;;) {
    now = now_s();
    bool done = true;
    double next_due = now + 0.005;
    fds.clear();
    fds.push_back({subscriber.fd(), POLLIN, 0});
    for (auto& sender : senders) {
      if (paced) {
        while (sender.due < sender.schedule.size() &&
               sender.schedule[sender.due] <= now) {
          lags.push_back((now - sender.schedule[sender.due]) * 1000.0);
          ++sender.due;
        }
        if (sender.due < sender.schedule.size()) {
          next_due = std::min(next_due, sender.schedule[sender.due]);
        }
      } else {
        sender.due =
            std::min(sender.total, sender.received + kFirehoseInFlight);
      }
      const bool pending = sender.send_some(paced);
      short events = POLLIN;
      if (pending) events |= POLLOUT;
      fds.push_back({sender.socket.fd(), events, 0});
      done = done && sender.written == sender.total &&
             sender.received == sender.written;
    }
    if (!subscriber.pump(on_record)) stream_ok = false;
    if (done || !stream_ok) break;
    if (now > send_end + kDrainTimeoutS) {
      result.problem("stream still missing updates after the drain timeout");
      break;
    }
    if (std::any_of(senders.begin(), senders.end(),
                    [](const Sender& s) { return s.broken; })) {
      result.problem("a BGP session broke");
      break;
    }
    wait_any(fds, next_due - now);
    for (std::size_t s = 0; s < senders.size(); ++s) {
      if ((fds[s + 1].revents & POLLIN) && !senders[s].drain()) {
        senders[s].broken = true;
      }
    }
  }
  if (!stream_ok) result.problem("the /v1/stream subscription ended");

  launch.cpu_s = collector.cpu_seconds() - cpu_start;
  launch.rss_mb = collector.peak_rss_mb();
  launch.busy_s = last_record - start;
  const std::string metrics = scrape_metrics(collector.http_port());
  if (metrics.empty()) result.problem("cannot scrape /v1/metrics");
  Scrape launch_scrape;
  launch_scrape.add(metrics);
  collector.stop();

  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const auto& sender : senders) {
    sent += sender.written;
    received += sender.received;
  }
  launch.ops = sent;
  launch.failed = (sent > received ? sent - received : 0) + mismatches;
  if (mismatches > 0) {
    result.problem(std::to_string(mismatches) +
                   " stream records out of order or not as sent");
  }
  if (received < sent) {
    result.problem(std::to_string(sent - received) +
                   " sent updates never reached the subscriber");
  }
  if (launch_scrape.updates_received != static_cast<double>(sent)) {
    result.problem("collector counted " +
                   std::to_string(launch_scrape.updates_received) +
                   " updates received, " + std::to_string(sent) + " sent");
  }
  if (launch_scrape.decode_errors != 0 || launch_scrape.stream_dropped != 0 ||
      launch_scrape.stream_evictions != 0) {
    result.problem("decode errors, stream drops or evictions reported");
  }
  scrape.updates_received += launch_scrape.updates_received;
  scrape.decode_errors += launch_scrape.decode_errors;
  scrape.read_pauses += launch_scrape.read_pauses;
  scrape.stream_dropped += launch_scrape.stream_dropped;
  scrape.stream_evictions += launch_scrape.stream_evictions;
  return true;
}

// ---------------------------------------------------------------------------
// archive_query

/// One closed-loop /v1/data client.
struct QueryClient {
  Socket socket;
  const std::vector<Query>* queries = nullptr;
  std::size_t next = 0;  // index of the next query
  std::size_t end = 0;   // this launch stops before this index
  bool busy = false;
  HttpResponseParser parser;
  std::string payload;
  MrtFramer framer;
  std::uint64_t records = 0;
  bool framing_ok = true;
  bool parse_ok = true;
  double started = 0;
  std::vector<char> buffer = std::vector<char>(kRecvChunk);

  bool start(std::uint16_t port) {
    socket.reset(connect_loopback(port));
    if (socket.fd() < 0) return false;
    const Query& query = (*queries)[next % queries->size()];
    const std::string request =
        "GET " + query.target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (!send_all(socket.fd(), request, now_s() + kSetupTimeoutS)) {
      return false;
    }
    started = now_s();
    parser = HttpResponseParser();
    payload.clear();
    records = 0;
    framing_ok = true;
    parse_ok = true;
    busy = true;
    return true;
  }

  /// Reads what arrived; true once the response ended.
  bool pump() {
    for (;;) {
      const ssize_t n = ::recv(socket.fd(), buffer.data(), buffer.size(), 0);
      if (n > 0) {
        parse_ok = parse_ok && parser.feed(buffer.data(),
                                           static_cast<std::size_t>(n),
                                           payload);
        framer.consume(payload, [this](std::string_view record) {
          if (MrtFramer::be16(record.data() + 4) != 16 ||
              MrtFramer::be16(record.data() + 6) != 4) {
            framing_ok = false;
          }
          ++records;
        });
        if (parser.complete()) return true;
        continue;
      }
      if (n == 0) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }
};

bool archive_launch(const Options& options, const std::string& dir,
                    std::vector<QueryClient>& clients, double window,
                    Launch& launch, std::vector<double>& latencies,
                    std::map<char, std::vector<double>>& by_kind,
                    Scrape& scrape, Result& result) {
  const double setup_start = now_s();
  Collector collector;
  std::string error;
  if (!collector.start(options.collector, dir, &error)) {
    result.problem(error);
    return false;
  }
  launch.setup_s = now_s() - setup_start;

  const auto blocks = static_cast<std::size_t>(
      std::max(1.0, std::round(kQueryBlocksPerSec * window)));
  for (auto& client : clients) client.end = client.next + 10 * blocks;
  const double cpu_start = collector.cpu_seconds();
  const double start = now_s();
  const double stop_at = start + window;
  double last_done = start;
  std::vector<pollfd> fds;
  for (;;) {
    double now = now_s();
    for (auto& client : clients) {
      if (!client.busy && client.next < client.end &&
          !client.start(collector.http_port())) {
        result.problem("cannot send a /v1/data request (errno " +
                       std::to_string(errno) + ") " + collector.failure());
        ++launch.failed;
        ++client.next;
      }
    }
    if (std::none_of(clients.begin(), clients.end(),
                     [](const QueryClient& c) { return c.busy; })) {
      break;
    }
    if (now > stop_at + kDrainTimeoutS) {
      result.problem("a /v1/data response did not finish");
      break;
    }
    fds.clear();
    for (auto& client : clients) {
      fds.push_back({client.busy ? client.socket.fd() : -1, POLLIN, 0});
    }
    wait_any(fds, 0.005);
    for (auto& client : clients) {
      if (!client.busy || !client.pump()) continue;
      now = now_s();
      const Query& query = (*client.queries)[client.next % client.queries->size()];
      const double latency_ms = (now - client.started) * 1000.0;
      const bool ok = client.parse_ok && client.parser.status() == 200 &&
                      client.parser.complete() && client.payload.empty() &&
                      client.framing_ok && client.records == query.expected;
      if (!ok) {
        ++launch.failed;
        result.problem("query " + query.target + " returned " +
                       std::to_string(client.records) + " records (status " +
                       std::to_string(client.parser.status()) + "), expected " +
                       std::to_string(query.expected));
      }
      latencies.push_back(latency_ms);
      by_kind[query.kind].push_back(latency_ms);
      launch.ops += client.records;
      ++result.attempted;
      last_done = now;
      client.socket.reset();
      client.busy = false;
      ++client.next;
    }
  }
  launch.cpu_s = collector.cpu_seconds() - cpu_start;
  launch.rss_mb = collector.peak_rss_mb();
  launch.busy_s = last_done - start;
  const std::string metrics = scrape_metrics(collector.http_port());
  if (metrics.empty()) result.problem("cannot scrape /v1/metrics");
  scrape.add(metrics);
  collector.stop();
  for (auto& client : clients) client.socket.reset();
  return true;
}

/// Sets the end-to-end metrics every serving workload reports: each the
/// median over the run's launches, so one launch that shared the machine
/// with a burst of outside load does not set the figure. The tail is taken
/// over all the run's samples instead: a launch of archive_query serves too
/// few queries for a tail that is not the boundary between query classes.
void set_serving_metrics(const std::vector<Launch>& runs, double input_s,
                         const std::vector<double>& latencies,
                         Result& result) {
  std::vector<double> setups, rss, rates, cpu, p50;
  for (const auto& run : runs) {
    setups.push_back(run.setup_s);
    rss.push_back(run.rss_mb);
    rates.push_back(run.busy_s > 0 ? static_cast<double>(run.ops) / run.busy_s
                                   : 0);
    cpu.push_back(run.ops > 0 ? run.cpu_s * 1e6 / static_cast<double>(run.ops)
                              : 0);
    p50.push_back(run.p50_ms);
    result.failed += run.failed;
  }
  result.set("setup_s", input_s + median(setups), "s");
  result.set("throughput_per_s", median(rates), "1/s");
  result.set("latency_p50_ms", median(p50), "ms");
  result.set("latency_tail_ms", tail(latencies), "ms");
  result.set("cpu_us_per_op", median(cpu), "us");
  result.set("peak_rss_mb", median(rss), "MiB");
  result.note("setup: inputs " + std::to_string(input_s) +
              " s + median launch " + std::to_string(median(setups)) + " s");
  result.note("latency samples: " + std::to_string(latencies.size()) +
              " over " + std::to_string(runs.size()) + " launches; tail = p" +
              std::to_string(100.0 * tail_level(latencies.size())));
}

}  // namespace

void run_ingest(const Options& options, bool paced, Result& result) {
  const StreamFormat format = paced ? StreamFormat::kMrt : StreamFormat::kJson;
  const double input_start = now_s();
  World world = make_world();
  const auto windows = make_windows(world, options.seed, 1, kUpdateWindowSecs);
  const auto pools = make_session_pools(windows[0], kSessions, format);
  const double input_s = now_s() - input_start;

  // The traced run repeats one launch of the same shape, then replays the
  // layers in-process.
  const std::size_t launches = options.trace ? 1 : kLaunches;
  const double window = options.seconds / static_cast<double>(kLaunches);
  std::vector<Launch> runs;
  std::vector<double> latencies;
  std::vector<double> lags;
  Scrape scrape;
  for (std::size_t l = 0; l < launches; ++l) {
    const std::string dir = options.workdir + "/launch" + std::to_string(l);
    make_dirs(dir);
    if (l == 0) result.note(stamp_line(dir));
    Launch launch;
    const std::size_t first = latencies.size();
    const bool ok = ingest_launch(options, paced, format, pools, window, l,
                                  dir, launch, latencies, lags, scrape, result);
    remove_tree(dir);
    if (!ok) return;
    launch.set_latencies(latencies, first);
    runs.push_back(launch);
    result.attempted += launch.ops;
  }
  set_serving_metrics(runs, input_s, latencies, result);

  const double lag_p50 = quantile(lags, 0.5);
  const double lag_p99 = quantile(lags, 0.99);
  if (paced && lag_p99 > kMaxGeneratorLagMs) {
    result.problem("invalid run: the generator fell behind its schedule (p99 " +
                   std::to_string(lag_p99) + " ms)");
  }
  // This workload's own names for its end-to-end figures.
  const char* rate_name = paced ? "delivered_updates_per_s"
                                : "ingest_updates_per_s";
  result.note(std::string(rate_name) + " = " +
              std::to_string(result.get("throughput_per_s")) + " updates/s");
  result.note("cpu_us_per_update = " +
              std::to_string(result.get("cpu_us_per_op")) + " us");
  result.note(std::string(paced ? "stream_latency" : "firehose_latency") +
              "_p50_ms = " + std::to_string(result.get("latency_p50_ms")) +
              " ms, _p99_ms = " + std::to_string(result.get("latency_tail_ms")) +
              " ms");
  result.note("generator send lag p50 = " + std::to_string(lag_p50) +
              " ms, p99 = " + std::to_string(lag_p99) + " ms");
  result.note("net.read_pauses = " + std::to_string(scrape.read_pauses));
  if (!options.trace) return;

  const auto [training, next] = halves(windows[0]);
  trace_layers(options, windows[0], format, training, next, "", {}, result);
  result.set("daemon.updates_received", scrape.updates_received, "count");
  result.set("daemon.decode_errors", scrape.decode_errors, "count");
  result.set("net.read_pauses", scrape.read_pauses, "count");
  result.set("net.stream_dropped_msgs", scrape.stream_dropped, "count");
  result.set("net.stream_evictions", scrape.stream_evictions, "count");
  result.set("generator.send_lag_p50_ms", paced ? lag_p50 : 0, "ms");
  result.set("generator.send_lag_p99_ms", paced ? lag_p99 : 0, "ms");
  // Per-update processing on the ingest path as the replay measured it:
  // the daemon poll (decode, RIB, stores, mirror) plus the stream publish.
  const double processing_ns = result.get("daemon.poll_ns_per_update") +
                               result.get("net.stream_publish_ns_per_update");
  std::vector<double> waits;
  waits.reserve(latencies.size());
  for (const double latency : latencies) {
    waits.push_back(latency - processing_ns / 1e6);
  }
  result.set("collector.stream_wait_ms_p50", quantile(waits, 0.5), "ms");
  const double cpu_us = result.get("cpu_us_per_op");
  result.set("cost_model.unaccounted_share",
             cpu_us > 0 ? 1.0 - processing_ns / 1000.0 / cpu_us : 0, "ratio");
}

void run_archive(const Options& options, Result& result) {
  const double input_start = now_s();
  World world = make_world();
  const auto windows = make_windows(world, options.seed, 1, kArchiveBaseSecs);
  ArchiveModel model;
  if (!model.build(windows[0], kArchiveBytes, kArchiveSpanSecs)) {
    result.problem("update window does not fit the archive model");
    return;
  }
  const std::string dir = options.workdir + "/serve";
  const double preload_start = now_s();
  if (!model.write(dir + "/archive")) {
    result.problem("archive preload failed");
    return;
  }
  result.note("preload: " + std::to_string(now_s() - preload_start) + " s");
  std::vector<QueryClient> clients(kQueryClients);
  std::vector<std::vector<Query>> queries;
  for (std::size_t c = 0; c < kQueryClients; ++c) {
    queries.push_back(
        model.make_queries(mix_seed(options.seed, 7 + c), kQueriesPerClient));
  }
  for (std::size_t c = 0; c < kQueryClients; ++c) {
    clients[c].queries = &queries[c];
  }
  const double input_s = now_s() - input_start;
  result.note(stamp_line(dir));
  result.note("archive: " + std::to_string(model.records()) + " records in " +
              std::to_string(model.replicas()) + " copies of " +
              std::to_string(windows[0].size()) + " updates");

  const std::size_t launches = options.trace ? 1 : kLaunches;
  const double window = options.seconds / static_cast<double>(kLaunches);
  std::vector<Launch> runs;
  std::vector<double> latencies;
  std::map<char, std::vector<double>> by_kind;
  Scrape scrape;
  for (std::size_t l = 0; l < launches; ++l) {
    Launch launch;
    const std::size_t first = latencies.size();
    if (!archive_launch(options, dir, clients, window, launch, latencies,
                        by_kind, scrape, result)) {
      return;
    }
    launch.set_latencies(latencies, first);
    runs.push_back(launch);
  }
  set_serving_metrics(runs, input_s, latencies, result);
  result.note("query_latency_p50_ms = " +
              std::to_string(result.get("latency_p50_ms")) +
              " ms, query_latency_tail_ms = " +
              std::to_string(result.get("latency_tail_ms")) + " ms");
  result.note("query_records_per_s = " +
              std::to_string(result.get("throughput_per_s")) + " records/s");
  for (const auto& [kind, values] : by_kind) {
    result.note(std::string("query class ") + kind + ": " +
                std::to_string(values.size()) + " queries, p50 " +
                std::to_string(quantile(values, 0.5)) + " ms");
  }
  if (!options.trace) {
    remove_tree(dir);
    return;
  }
  const std::vector<Query> replay(queries[0].begin(), queries[0].begin() + 20);
  const auto [training, next] = halves(windows[0]);
  trace_layers(options, windows[0], StreamFormat::kJson, training, next,
               dir + "/archive", replay, result);
  remove_tree(dir);
  const double lookups = scrape.cache_hits + scrape.cache_misses;
  result.set("archive.cache_hit_ratio",
             lookups > 0 ? scrape.cache_hits / lookups : 0, "ratio");
  result.set("archive.cache_disk_reads", scrape.cache_misses, "count");
  const double planned = scrape.segments_scanned + scrape.segments_pruned;
  result.set("archive.prune_ratio",
             planned > 0 ? scrape.segments_pruned / planned : 0, "ratio");
  result.set("archive.segments_planned",
             scrape.queries > 0 ? scrape.segments_scanned / scrape.queries : 0,
             "count");
}

}  // namespace pb
