#include "net/stream.hpp"

#include <algorithm>

#include "feed/live_feed.hpp"
#include "mrt/mrt.hpp"

namespace gill::net {

namespace {

/// Upper bound on one chunk pulled from a subscriber queue: large enough
/// to amortize framing, small enough that one slow reader's flush never
/// monopolizes the loop.
constexpr std::size_t kMaxChunkBytes = 64 * 1024;

bool parse_u16(const std::string& text, std::uint16_t* out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, &value) || value > 65535) return false;
  *out = static_cast<std::uint16_t>(value);
  return true;
}

}  // namespace

std::optional<StreamSubscription> StreamSubscription::parse(
    const HttpRequest& request, std::string* error) {
  StreamSubscription out;
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  for (const auto& [key, value] : request.query) {
    if (key == "vp") {
      std::uint64_t vp = 0;
      if (!parse_u64(value, &vp) || vp > UINT32_MAX) {
        return fail("bad vp '" + value + "': want a decimal VP id");
      }
      out.vp = static_cast<bgp::VpId>(vp);
    } else if (key == "prefix") {
      const auto prefix = net::Prefix::parse(value);
      if (!prefix) {
        return fail("bad prefix '" + value + "': want CIDR like 10.0.0.0/8");
      }
      out.prefix = *prefix;
    } else if (key == "aspath") {
      try {
        out.aspath.emplace(value, std::regex::extended);
      } catch (const std::regex_error&) {
        return fail("bad aspath '" + value +
                    "': want a POSIX extended regex");
      }
      out.aspath_text = value;
    } else if (key == "community") {
      const std::size_t colon = value.find(':');
      std::uint16_t asn = 0;
      std::uint16_t community_value = 0;
      if (colon == std::string::npos ||
          !parse_u16(value.substr(0, colon), &asn) ||
          !parse_u16(value.substr(colon + 1), &community_value)) {
        return fail("bad community '" + value + "': want ASN:VALUE");
      }
      out.community = bgp::Community(asn, community_value);
    } else if (key == "format") {
      if (value == "json") {
        out.format = Format::kJson;
      } else if (value == "mrt") {
        out.format = Format::kMrt;
      } else {
        return fail("bad format '" + value + "': want json or mrt");
      }
    } else {
      return fail("unknown parameter '" + key + "'");
    }
  }
  return out;
}

bool StreamSubscription::matches(const bgp::Update& update) const {
  if (vp && update.vp != *vp) return false;
  if (prefix && !prefix->covers(update.prefix)) return false;
  if (community &&
      std::find(update.communities.begin(), update.communities.end(),
                *community) == update.communities.end()) {
    return false;
  }
  if (aspath && !std::regex_search(update.path.str(), *aspath)) return false;
  return true;
}

StreamHub::Subscriber::Subscriber(StreamSubscription subscription_in,
                                  metrics::Gauge& subscribers,
                                  metrics::Gauge& queue_bytes)
    : subscription(std::move(subscription_in)),
      subscribers_gauge(subscribers),
      queue_bytes_gauge(queue_bytes) {
  subscribers_gauge.add(1.0);
}

StreamHub::Subscriber::~Subscriber() {
  queue_bytes_gauge.sub(static_cast<double>(queue.size()));
  subscribers_gauge.sub(1.0);
}

StreamHub::StreamHub(HttpEndpoint& http, StreamConfig config,
                     metrics::Registry* registry)
    : http_(&http),
      config_(config),
      registry_(registry != nullptr ? *registry
                                    : metrics::default_registry()),
      fanout_msgs_(registry_.counter(
          "gill_stream_fanout_msgs_total",
          "Updates delivered into subscriber queues (per subscriber)")),
      dropped_msgs_(registry_.counter(
          "gill_stream_dropped_msgs_total",
          "Updates trimmed because a subscriber queue was full")),
      evictions_(registry_.counter(
          "gill_stream_evictions_total",
          "Subscribers evicted as stalled (queue full, never draining)")),
      rejected_(registry_.counter(
          "gill_stream_rejected_total",
          "Subscriptions refused (bad parameters or subscriber limit)")),
      subscribers_gauge_(registry_.gauge(
          "gill_stream_subscribers", "Live /v1/stream subscribers")),
      queue_bytes_gauge_(registry_.gauge(
          "gill_stream_queue_bytes",
          "Bytes queued across all subscriber queues")) {
  register_routes();
}

bool StreamHub::register_routes() {
  return http_->route(
      "/v1/stream",
      [this](const HttpRequest& request) { return subscribe(request); });
}

HttpResponse StreamHub::subscribe(const HttpRequest& request) {
  prune_expired();
  std::string error;
  auto subscription = StreamSubscription::parse(request, &error);
  if (!subscription) {
    rejected_.inc();
    return error_response(400, "bad_param", error);
  }
  if (subscribers_.size() >= config_.max_subscribers) {
    rejected_.inc();
    return error_response(503, "subscribers_exhausted",
                          "subscriber limit reached, retry later");
  }
  const bool json = subscription->format == StreamSubscription::Format::kJson;
  auto subscriber = std::make_shared<Subscriber>(
      std::move(*subscription), subscribers_gauge_, queue_bytes_gauge_);
  subscribers_.push_back(subscriber);

  HttpResponse response;
  response.content_type =
      json ? "application/x-ndjson" : "application/octet-stream";
  response.live = true;
  response.on_stream = [subscriber](HttpEndpoint::StreamId id) {
    subscriber->stream_id = id;
  };
  // The producer closure owns the subscriber: when the connection drops
  // (client left, idle-evicted, or close_stream), the closure's destruction
  // releases the last reference and the hub prunes its expired weak_ptr.
  response.producer = [subscriber](std::string& out) {
    if (subscriber->queue.empty()) return !subscriber->evicted;
    const auto pending = subscriber->queue.peek();
    const std::size_t n = std::min(pending.size(), kMaxChunkBytes);
    out.append(reinterpret_cast<const char*>(pending.data()), n);
    subscriber->queue.consume(n);
    subscriber->queue_bytes_gauge.sub(static_cast<double>(n));
    return true;
  };
  return response;
}

void StreamHub::publish(const bgp::Update& update) {
  publish(std::span(&update, 1));
}

void StreamHub::publish(std::span<const bgp::Update> batch) {
  if (subscribers_.empty()) return;
  bool expired = false;
  for (const auto& update : batch) expired |= fan_out(update);
  for (const auto& weak : subscribers_) {
    const auto subscriber = weak.lock();
    if (subscriber && subscriber->unflushed_bytes > 0) flush(*subscriber);
  }
  if (expired) prune_expired();
}

bool StreamHub::fan_out(const bgp::Update& update) {
  // Encode lazily, at most once per format — fanning one update out to a
  // thousand subscribers is a thousand byte appends, not a thousand
  // encodings.
  std::string json_line;
  std::string mrt_record;
  const auto payload_for =
      [&](StreamSubscription::Format format) -> const std::string& {
    if (format == StreamSubscription::Format::kJson) {
      if (json_line.empty()) json_line = feed::encode_live_update(update);
      return json_line;
    }
    if (mrt_record.empty()) {
      mrt::Writer writer;
      writer.write_update(update);
      mrt_record.assign(writer.buffer().begin(), writer.buffer().end());
    }
    return mrt_record;
  };
  const std::size_t low = config_.queue_low_bytes > 0
                              ? config_.queue_low_bytes
                              : config_.queue_high_bytes / 2;
  // Mid-batch flush point: a chunk's worth, but never past the low
  // watermark, so a subscriber whose socket keeps up never trims.
  const std::size_t flush_at = std::min(kMaxChunkBytes, low);
  bool expired = false;
  for (const auto& weak : subscribers_) {
    const auto subscriber = weak.lock();
    if (!subscriber) {
      expired = true;
      continue;
    }
    if (subscriber->evicted) continue;
    if (!subscriber->subscription.matches(update)) continue;
    const std::string& payload = payload_for(subscriber->subscription.format);
    if (subscriber->trimming && subscriber->queue.size() <= low) {
      subscriber->trimming = false;  // drained below the low watermark
      subscriber->drops_in_a_row = 0;
    }
    if (subscriber->trimming ||
        subscriber->queue.size() + payload.size() >
            config_.queue_high_bytes) {
      // Trim: the whole message is dropped (framing never tears) and the
      // queue stays at or under the watermark. A reader that never drains
      // — a stalled socket — accumulates consecutive drops and is evicted.
      subscriber->trimming = true;
      ++subscriber->drops_in_a_row;
      dropped_msgs_.inc();
      if (subscriber->drops_in_a_row >= config_.evict_after_drops) {
        subscriber->evicted = true;
        evictions_.inc();
        // Dropping the connection frees the producer closure and with it
        // the subscriber itself; healthy subscribers are untouched.
        http_->close_stream(subscriber->stream_id);
        expired = true;
      }
      continue;
    }
    subscriber->queue.write(
        {reinterpret_cast<const std::uint8_t*>(payload.data()),
         payload.size()});
    queue_bytes_gauge_.add(static_cast<double>(payload.size()));
    max_subscriber_queue_bytes_ =
        std::max(max_subscriber_queue_bytes_, subscriber->queue.size());
    fanout_msgs_.inc();
    subscriber->drops_in_a_row = 0;
    subscriber->unflushed_bytes += payload.size();
    if (subscriber->unflushed_bytes >= flush_at) flush(*subscriber);
  }
  return expired;
}

void StreamHub::flush(Subscriber& subscriber) {
  subscriber.unflushed_bytes = 0;
  http_->wake(subscriber.stream_id);
}

std::size_t StreamHub::subscriber_count() const {
  std::size_t count = 0;
  for (const auto& weak : subscribers_) {
    if (!weak.expired()) ++count;
  }
  return count;
}

std::size_t StreamHub::queue_bytes() const {
  std::size_t bytes = 0;
  for (const auto& weak : subscribers_) {
    if (const auto subscriber = weak.lock()) bytes += subscriber->queue.size();
  }
  return bytes;
}

void StreamHub::prune_expired() {
  std::erase_if(subscribers_,
                [](const std::weak_ptr<Subscriber>& weak) {
                  return weak.expired();
                });
}

}  // namespace gill::net
