// The live streaming distribution plane (GET /v1/stream): subscription
// parameter compilation, per-subscriber filtering over real loopback TCP,
// the trim/evict backpressure state machine under a stalled socket, batch
// publishes (one flush per batch, never a trim for batch size), the
// idle-sweep exemption for quiet parked streams, the legacy /stream alias
// and the raw-MRT output format.
//
// Like net_test, every test binds 127.0.0.1 port 0 and drives both ends of
// each connection from ONE event loop: single-threaded, deterministic,
// sanitizer-friendly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "feed/live_feed.hpp"
#include "mrt/mrt.hpp"
#include "net/event_loop.hpp"
#include "net/http_endpoint.hpp"
#include "net/stream.hpp"
#include "test_util.hpp"

namespace gill::net {
namespace {

using test::dechunk;

net::Prefix pfx(const char* text) { return net::Prefix::parse(text).value(); }

bgp::Update make_update(bgp::VpId vp, const char* prefix,
                        std::vector<bgp::AsNumber> hops,
                        bgp::CommunitySet communities = {},
                        bool withdrawal = false) {
  bgp::Update update;
  update.vp = vp;
  update.time = 1000;
  update.prefix = pfx(prefix);
  update.path = bgp::AsPath(std::move(hops));
  update.communities = std::move(communities);
  update.withdrawal = withdrawal;
  return update;
}

HttpRequest make_request(
    std::initializer_list<std::pair<const char*, const char*>> params) {
  HttpRequest request;
  request.path = "/v1/stream";
  for (const auto& [key, value] : params) request.query[key] = value;
  return request;
}

/// One streaming HTTP client over a raw non-blocking loopback socket:
/// sends its GET once, accumulates the chunked response, exposes the
/// de-chunked payload. `rcvbuf` shrinks the receive window before connect
/// so a non-reading client backs the server up after a few kilobytes.
struct LiveClient {
  int fd = -1;
  std::string raw;
  bool closed = false;

  LiveClient(std::uint16_t port, const std::string& target, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    EXPECT_GE(fd, 0);
    if (rcvbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    EXPECT_TRUE(rc == 0 || errno == EINPROGRESS);
    request_ = "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
  }
  ~LiveClient() {
    if (fd >= 0) ::close(fd);
  }

  /// Pushes the request out and (unless stalled) drains the socket.
  void pump(bool read = true) {
    if (sent_ < request_.size()) {
      const ssize_t n = ::send(fd, request_.data() + sent_,
                               request_.size() - sent_, MSG_NOSIGNAL);
      if (n > 0) sent_ += static_cast<std::size_t>(n);
    }
    if (!read) return;
    char buffer[8192];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n > 0) {
        raw.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) closed = true;
      break;
    }
  }

  std::string headers() const {
    const std::size_t split = raw.find("\r\n\r\n");
    return split == std::string::npos ? std::string() : raw.substr(0, split);
  }
  std::string payload() const {
    const std::size_t split = raw.find("\r\n\r\n");
    if (split == std::string::npos) return {};
    return dechunk(std::string_view(raw).substr(split + 4));
  }
  /// The complete NDJSON lines received so far, decoded.
  std::vector<feed::LiveMessage> messages() const {
    std::vector<feed::LiveMessage> out;
    const std::string text = payload();
    std::size_t start = 0;
    while (start < text.size()) {
      const std::size_t end = text.find('\n', start);
      if (end == std::string::npos) break;  // line still in flight
      const auto message =
          feed::decode_live(std::string_view(text).substr(start, end - start));
      EXPECT_TRUE(message.has_value()) << text.substr(start, end - start);
      if (message) out.push_back(*message);
      start = end + 1;
    }
    return out;
  }

 private:
  std::string request_;
  std::size_t sent_ = 0;
};

// ---------------------------------------------------------------------------
// Subscription compilation: every query parameter is validated strictly.
// ---------------------------------------------------------------------------

TEST(StreamSubscription, CompilesEveryParameter) {
  std::string error;
  const auto subscription = StreamSubscription::parse(
      make_request({{"vp", "7"},
                    {"prefix", "10.0.0.0/8"},
                    {"aspath", "^65010 "},
                    {"community", "65010:100"},
                    {"format", "mrt"}}),
      &error);
  ASSERT_TRUE(subscription.has_value()) << error;
  EXPECT_EQ(subscription->vp, 7u);
  EXPECT_EQ(subscription->prefix->str(), "10.0.0.0/8");
  EXPECT_EQ(subscription->aspath_text, "^65010 ");
  EXPECT_EQ(subscription->community, bgp::Community(65010, 100));
  EXPECT_EQ(subscription->format, StreamSubscription::Format::kMrt);

  const auto firehose = StreamSubscription::parse(make_request({}), &error);
  ASSERT_TRUE(firehose.has_value());
  EXPECT_FALSE(firehose->vp || firehose->prefix || firehose->aspath ||
               firehose->community);
  EXPECT_EQ(firehose->format, StreamSubscription::Format::kJson);
}

TEST(StreamSubscription, RejectsEveryMalformedParameter) {
  const std::initializer_list<std::pair<const char*, const char*>> bad = {
      {"vp", "abc"},          {"vp", "4294967296"},  {"vp", "-1"},
      {"prefix", "bananas"},  {"prefix", "10.0.0.0/33"},
      {"aspath", "(65010"},   // unbalanced group: not a valid regex
      {"community", "65010"}, {"community", "65010:x"},
      {"community", "70000:1"},
      {"format", "xml"},      {"nonsense", "1"}};
  for (const auto& [key, value] : bad) {
    std::string error;
    const auto subscription =
        StreamSubscription::parse(make_request({{key, value}}), &error);
    EXPECT_FALSE(subscription.has_value()) << key << "=" << value;
    EXPECT_FALSE(error.empty()) << key << "=" << value;
  }
  std::string error;
  EXPECT_FALSE(StreamSubscription::parse(make_request({{"bogus", "1"}}),
                                         &error));
  EXPECT_EQ(error, "unknown parameter 'bogus'");
}

TEST(StreamSubscription, MatchesIsAConjunctionOfAllClauses) {
  std::string error;
  const auto subscription = StreamSubscription::parse(
      make_request({{"vp", "2"},
                    {"prefix", "10.0.0.0/8"},
                    {"aspath", "65020"},
                    {"community", "65010:100"}}),
      &error);
  ASSERT_TRUE(subscription.has_value()) << error;

  const auto matching = make_update(2, "10.1.0.0/16", {65010, 65020, 64500},
                                    {bgp::Community(65010, 100)});
  EXPECT_TRUE(subscription->matches(matching));

  auto wrong_vp = matching;
  wrong_vp.vp = 3;
  EXPECT_FALSE(subscription->matches(wrong_vp));
  auto wrong_prefix = matching;
  wrong_prefix.prefix = pfx("11.0.0.0/8");
  EXPECT_FALSE(subscription->matches(wrong_prefix));
  auto wrong_path = matching;
  wrong_path.path = bgp::AsPath({65010, 64500});
  EXPECT_FALSE(subscription->matches(wrong_path));
  auto wrong_community = matching;
  wrong_community.communities = {bgp::Community(65010, 200)};
  EXPECT_FALSE(subscription->matches(wrong_community));
}

TEST(StreamSubscription, PrefixClauseMeansEqualOrMoreSpecific) {
  std::string error;
  const auto subscription = StreamSubscription::parse(
      make_request({{"prefix", "10.0.0.0/8"}}), &error);
  ASSERT_TRUE(subscription.has_value());
  EXPECT_TRUE(subscription->matches(make_update(1, "10.0.0.0/8", {65010})));
  EXPECT_TRUE(subscription->matches(make_update(1, "10.2.3.0/24", {65010})));
  // A covering (less specific) route is NOT within 10.0.0.0/8.
  EXPECT_FALSE(subscription->matches(make_update(1, "0.0.0.0/0", {65010})));
}

// ---------------------------------------------------------------------------
// Fan-out over real loopback TCP.
// ---------------------------------------------------------------------------

TEST(StreamHub, TwoSubscribersReceiveExactlyTheirMatchesInArrivalOrder) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamHub hub(http, {}, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  LiveClient by_prefix(http.port(), "/v1/stream?prefix=10.0.0.0/8");
  LiveClient by_vp(http.port(), "/v1/stream?vp=2");
  for (int i = 0; i < 500 && hub.subscriber_count() < 2; ++i) {
    loop.run_once(1);
    by_prefix.pump();
    by_vp.pump();
  }
  ASSERT_EQ(hub.subscriber_count(), 2u);

  hub.publish(make_update(1, "10.1.0.0/16", {65010, 64500}));   // prefix only
  hub.publish(make_update(2, "192.168.0.0/16", {65020}));       // vp only
  hub.publish(make_update(2, "10.2.0.0/16", {65020, 64500}));   // both
  hub.publish(make_update(3, "172.16.0.0/12", {65030}));        // neither
  for (int i = 0; i < 500 && (by_prefix.messages().size() < 2 ||
                              by_vp.messages().size() < 2);
       ++i) {
    loop.run_once(1);
    by_prefix.pump();
    by_vp.pump();
  }

  EXPECT_NE(by_prefix.headers().find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(by_prefix.headers().find("Content-Type: application/x-ndjson"),
            std::string::npos)
      << by_prefix.headers();
  const auto prefix_messages = by_prefix.messages();
  ASSERT_EQ(prefix_messages.size(), 2u) << by_prefix.payload();
  EXPECT_EQ(prefix_messages[0].announcements.at(0).str(), "10.1.0.0/16");
  EXPECT_EQ(prefix_messages[1].announcements.at(0).str(), "10.2.0.0/16");

  const auto vp_messages = by_vp.messages();
  ASSERT_EQ(vp_messages.size(), 2u) << by_vp.payload();
  EXPECT_EQ(vp_messages[0].announcements.at(0).str(), "192.168.0.0/16");
  EXPECT_EQ(vp_messages[1].announcements.at(0).str(), "10.2.0.0/16");
  EXPECT_EQ(vp_messages[0].vp, 2u);

  EXPECT_EQ(registry.counter_total("gill_stream_fanout_msgs_total"), 4u);
  EXPECT_EQ(registry.counter_total("gill_stream_dropped_msgs_total"), 0u);
}

TEST(StreamHub, WithdrawalsStreamAsWithdrawalDocuments) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamHub hub(http, {}, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  LiveClient client(http.port(), "/v1/stream");
  for (int i = 0; i < 500 && hub.subscriber_count() < 1; ++i) {
    loop.run_once(1);
    client.pump();
  }
  hub.publish(make_update(1, "10.1.0.0/16", {65010}, {}, /*withdrawal=*/true));
  for (int i = 0; i < 500 && client.messages().empty(); ++i) {
    loop.run_once(1);
    client.pump();
  }
  const auto messages = client.messages();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_TRUE(messages[0].announcements.empty());
  ASSERT_EQ(messages[0].withdrawals.size(), 1u);
  EXPECT_EQ(messages[0].withdrawals[0].str(), "10.1.0.0/16");
}

/// `count` updates of ~1.5 KiB each as NDJSON (a 200-hop AS path), update
/// i announcing 10.i.0.0/16: a handful fill a 4 KiB queue.
std::vector<bgp::Update> long_path_batch(int count) {
  std::vector<bgp::AsNumber> long_path(200);
  for (std::size_t i = 0; i < long_path.size(); ++i) {
    long_path[i] = static_cast<bgp::AsNumber>(65000 + i);
  }
  std::vector<bgp::Update> batch;
  for (int i = 0; i < count; ++i) {
    const std::string prefix = "10." + std::to_string(i) + ".0.0/16";
    batch.push_back(make_update(1, prefix.c_str(), long_path));
  }
  return batch;
}

/// A reader that stops consuming fills its kernel buffers, then its queue;
/// above the high watermark its new messages are trimmed whole, and when it
/// never drains it is evicted — all without disturbing a healthy subscriber
/// or growing any queue past the watermark. `flood(hub)` publishes one
/// round of the flood; the loop serves the healthy reader between rounds.
void expect_stalled_reader_evicted(
    const std::function<void(StreamHub&)>& flood) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamConfig config;
  config.queue_high_bytes = 4096;
  config.evict_after_drops = 8;
  StreamHub hub(http, config, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  // The healthy subscriber watches a prefix the flood never announces.
  LiveClient healthy(http.port(), "/v1/stream?prefix=192.168.0.0/16");
  // The stalled one takes the firehose through a tiny receive window and
  // will stop reading the moment its headers arrive.
  LiveClient stalled(http.port(), "/v1/stream", /*rcvbuf=*/1024);
  for (int i = 0;
       i < 500 && (hub.subscriber_count() < 2 || stalled.headers().empty());
       ++i) {
    loop.run_once(1);
    healthy.pump();
    stalled.pump();
  }
  ASSERT_EQ(hub.subscriber_count(), 2u);

  int rounds = 0;
  for (; rounds < 2000 &&
         registry.counter_total("gill_stream_evictions_total") == 0;
       ++rounds) {
    flood(hub);
    loop.run_once(0);
    healthy.pump();
  }

  EXPECT_EQ(registry.counter_total("gill_stream_evictions_total"), 1u)
      << "stalled subscriber not evicted after " << rounds << " rounds";
  EXPECT_GE(registry.counter_total("gill_stream_dropped_msgs_total"),
            config.evict_after_drops);
  // Bounded memory: no queue ever exceeded the configured watermark.
  EXPECT_LE(hub.max_subscriber_queue_bytes(), config.queue_high_bytes);
  EXPECT_EQ(hub.subscriber_count(), 1u);

  // The healthy subscriber sailed through: its matching update arrives.
  hub.publish(make_update(1, "192.168.1.0/24", {65010}));
  for (int i = 0; i < 500 && healthy.messages().empty(); ++i) {
    loop.run_once(1);
    healthy.pump();
  }
  const auto messages = healthy.messages();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].announcements.at(0).str(), "192.168.1.0/24");
  EXPECT_EQ(hub.queue_bytes(), 0u);  // fully drained again
}

TEST(StreamHub, StalledReaderIsTrimmedThenEvictedWithoutCollateral) {
  const std::vector<bgp::Update> flood = long_path_batch(16);
  expect_stalled_reader_evicted([&flood](StreamHub& hub) {
    for (const auto& update : flood) hub.publish(update);
  });
}

// The same flood as batches: the trim and evict rules are those of single
// publishes.
TEST(StreamHub, BatchesTrimThenEvictAStalledReader) {
  const std::vector<bgp::Update> batch = long_path_batch(32);
  expect_stalled_reader_evicted(
      [&batch](StreamHub& hub) { hub.publish(batch); });
}

// One publish(batch) call fans a batch out, but the subscriber is flushed
// every time a chunk's worth (at most the low watermark) has queued up, so
// a batch twelve times the queue watermark reaches a subscriber whose
// socket keeps accepting bytes, in order and without a single drop.
TEST(StreamHub, BatchAboveTheWatermarkReachesAReadingSubscriber) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamConfig config;
  config.queue_high_bytes = 4096;
  config.evict_after_drops = 8;
  StreamHub hub(http, config, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  LiveClient client(http.port(), "/v1/stream");
  for (int i = 0;
       i < 500 && (hub.subscriber_count() < 1 || client.headers().empty());
       ++i) {
    loop.run_once(1);
    client.pump();
  }
  ASSERT_EQ(hub.subscriber_count(), 1u);

  const std::vector<bgp::Update> batch = long_path_batch(32);
  hub.publish(batch);
  EXPECT_EQ(registry.counter_total("gill_stream_dropped_msgs_total"), 0u);
  EXPECT_LE(hub.max_subscriber_queue_bytes(), config.queue_high_bytes);
  for (int i = 0; i < 500 && client.messages().size() < batch.size(); ++i) {
    loop.run_once(1);
    client.pump();
  }
  const auto messages = client.messages();
  ASSERT_EQ(messages.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(messages[i].announcements.at(0), batch[i].prefix) << i;
  }
  EXPECT_EQ(registry.counter_total("gill_stream_evictions_total"), 0u);
}

// A single publish flushes at once: the record is on the subscriber's
// socket when publish() returns, with no loop pass in between.
TEST(StreamHub, SinglePublishReachesTheSocketWithNoFurtherCall) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamHub hub(http, {}, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  LiveClient client(http.port(), "/v1/stream");
  for (int i = 0;
       i < 500 && (hub.subscriber_count() < 1 || client.headers().empty());
       ++i) {
    loop.run_once(1);
    client.pump();
  }
  ASSERT_EQ(hub.subscriber_count(), 1u);

  hub.publish(make_update(4, "10.0.0.0/8", {65010}));
  for (int i = 0; i < 1000 && client.messages().empty(); ++i) {
    client.pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto messages = client.messages();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].vp, 4u);
}

// Quiet is not stalled: a parked subscriber with nothing pending survives
// the idle sweep indefinitely and still receives the next update.
TEST(StreamHub, QuietParkedSubscriberSurvivesTheIdleSweep) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  http.set_idle_timeout_ms(80);
  StreamHub hub(http, {}, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  LiveClient client(http.port(), "/v1/stream");
  for (int i = 0; i < 500 && hub.subscriber_count() < 1; ++i) {
    loop.run_once(1);
    client.pump();
  }
  ASSERT_EQ(hub.subscriber_count(), 1u);

  // Several idle timeouts elapse with an empty feed; the subscription must
  // hold (while net_test proves a *stalled* reader IS swept in this window).
  const auto start = loop.now_ms();
  while (loop.now_ms() < start + 400) {
    loop.run_once(5);
    client.pump();
  }
  EXPECT_EQ(hub.subscriber_count(), 1u);
  EXPECT_EQ(http.open_connections(), 1u);
  EXPECT_EQ(registry.counter_total("gill_net_http_idle_evictions_total"), 0u);

  hub.publish(make_update(4, "10.0.0.0/8", {65010}));
  for (int i = 0; i < 500 && client.messages().empty(); ++i) {
    loop.run_once(1);
    client.pump();
  }
  ASSERT_EQ(client.messages().size(), 1u);
  EXPECT_EQ(client.messages()[0].vp, 4u);
}

TEST(StreamHub, ClientDisconnectRetiresTheSubscription) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamHub hub(http, {}, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  auto client = std::make_unique<LiveClient>(http.port(), "/v1/stream");
  for (int i = 0; i < 500 && hub.subscriber_count() < 1; ++i) {
    loop.run_once(1);
    client->pump();
  }
  ASSERT_EQ(hub.subscriber_count(), 1u);
  metrics::Gauge& subscribers =
      registry.gauge("gill_stream_subscribers", "Live /v1/stream subscribers");
  EXPECT_EQ(subscribers.value(), 1.0);

  client.reset();  // consumer walks away
  for (int i = 0; i < 500 && http.open_connections() > 0; ++i) {
    loop.run_once(1);
  }
  EXPECT_EQ(http.open_connections(), 0u);
  EXPECT_EQ(hub.subscriber_count(), 0u);
  EXPECT_EQ(subscribers.value(), 0.0);
}

// ---------------------------------------------------------------------------
// The versioned surface: retired legacy path, error envelopes, the 503
// limit.
// ---------------------------------------------------------------------------

// The pre-/v1 /stream spelling had a one-release grace window as an alias;
// it is retired now and must answer 404 with the uniform error envelope
// (never a silent empty feed), without consuming a subscriber slot.
TEST(StreamHub, RetiredLegacyStreamPathAnswers404) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamHub hub(http, {}, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  LiveClient client(http.port(), "/stream?vp=9");
  for (int i = 0;
       i < 500 && client.raw.find("\r\n\r\n") == std::string::npos; ++i) {
    loop.run_once(1);
    client.pump();
  }
  EXPECT_NE(client.raw.find("HTTP/1.1 404 Not Found"), std::string::npos)
      << client.raw;
  EXPECT_NE(client.raw.find("\"code\":\"not_found\""), std::string::npos)
      << client.raw;
  EXPECT_EQ(hub.subscriber_count(), 0u);
}

TEST(StreamHub, BadParameterGetsTheUniformErrorEnvelope) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamHub hub(http, {}, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  LiveClient client(http.port(), "/v1/stream?prefix=bananas");
  for (int i = 0; i < 500 && !client.closed; ++i) {
    loop.run_once(1);
    client.pump();
  }
  EXPECT_NE(client.raw.find("HTTP/1.1 400 Bad Request"), std::string::npos);
  EXPECT_NE(client.raw.find("{\"error\":{\"code\":\"bad_param\",\"message\":"
                            "\"bad prefix 'bananas': want CIDR like "
                            "10.0.0.0/8\"}}"),
            std::string::npos)
      << client.raw;
  EXPECT_EQ(hub.subscriber_count(), 0u);
  EXPECT_EQ(registry.counter_total("gill_stream_rejected_total"), 1u);
}

TEST(StreamHub, SubscriberLimitAnswers503) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamConfig config;
  config.max_subscribers = 1;
  StreamHub hub(http, config, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  LiveClient first(http.port(), "/v1/stream");
  for (int i = 0; i < 500 && hub.subscriber_count() < 1; ++i) {
    loop.run_once(1);
    first.pump();
  }
  ASSERT_EQ(hub.subscriber_count(), 1u);

  LiveClient second(http.port(), "/v1/stream");
  for (int i = 0; i < 500 && !second.closed; ++i) {
    loop.run_once(1);
    first.pump();
    second.pump();
  }
  EXPECT_NE(second.raw.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos)
      << second.raw;
  EXPECT_NE(second.raw.find("\"code\":\"subscribers_exhausted\""),
            std::string::npos);
  EXPECT_EQ(hub.subscriber_count(), 1u);
}

TEST(StreamHub, RegisterRoutesRejectsASecondHubOnTheSameEndpoint) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamHub hub(http, {}, &registry);
  // The paths are taken now: a second registration must be refused.
  EXPECT_FALSE(hub.register_routes());
}

// ---------------------------------------------------------------------------
// format=mrt: the same fan-out delivering raw framed MRT records.
// ---------------------------------------------------------------------------

TEST(StreamHub, MrtFormatDeliversDecodableFramedRecords) {
  EventLoop loop;
  metrics::Registry registry;
  HttpEndpoint http(loop, &registry);
  StreamHub hub(http, {}, &registry);
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  LiveClient client(http.port(), "/v1/stream?format=mrt&prefix=10.0.0.0/8");
  for (int i = 0; i < 500 && hub.subscriber_count() < 1; ++i) {
    loop.run_once(1);
    client.pump();
  }
  ASSERT_EQ(hub.subscriber_count(), 1u);

  hub.publish(make_update(1, "10.1.0.0/16", {65010, 64500}));
  hub.publish(make_update(2, "10.2.0.0/16", {65020}));
  hub.publish(make_update(2, "172.16.0.0/12", {65020}));  // filtered out

  mrt::Writer expected;
  expected.write_update(make_update(1, "10.1.0.0/16", {65010, 64500}));
  expected.write_update(make_update(2, "10.2.0.0/16", {65020}));
  for (int i = 0;
       i < 500 && client.payload().size() < expected.buffer().size(); ++i) {
    loop.run_once(1);
    client.pump();
  }
  EXPECT_NE(client.headers().find("Content-Type: application/octet-stream"),
            std::string::npos)
      << client.headers();

  const std::string payload = client.payload();
  mrt::Reader reader(std::span(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()));
  const auto first = reader.next();
  const auto second = reader.next();
  ASSERT_TRUE(first && second) << payload.size();
  EXPECT_EQ(first->update.prefix.str(), "10.1.0.0/16");
  EXPECT_EQ(first->update.path, bgp::AsPath({65010, 64500}));
  EXPECT_EQ(second->update.prefix.str(), "10.2.0.0/16");
  EXPECT_EQ(second->update.vp, 2u);
  EXPECT_TRUE(reader.done());
  EXPECT_TRUE(reader.ok());
}

}  // namespace
}  // namespace gill::net
