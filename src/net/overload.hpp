// Overload-control primitives for the ingest path (DESIGN.md §11): a
// token bucket for per-peer byte-rate ceilings, bounded-queue watermark
// policy for real TCP backpressure (TcpTransport disarms EPOLLIN when the
// inbound queue crosses the high watermark, so the kernel window closes
// and the sender stalls instead of the collector buffering without bound),
// and a per-source accept governor that throttles connect/reconnect storms
// before they reach the session layer.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "metrics/metrics.hpp"

namespace gill::net {

/// Classic token bucket over a millisecond clock. Rate 0 means unlimited.
/// `spend()` is for costs that were already incurred (bytes read off the
/// socket): the balance may go negative, and the bucket reports "in debt"
/// until refill catches up. `try_take()` is for admission decisions that
/// can be refused outright (accepts).
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double burst)
      : rate_(rate_per_sec),
        burst_(burst > 0 ? burst : rate_per_sec),
        tokens_(burst_) {}

  bool unlimited() const noexcept { return rate_ <= 0; }

  /// Deducts `n` tokens unconditionally; returns true while the balance
  /// stays positive (the caller may keep going).
  bool spend(double n, std::uint64_t now_ms) {
    if (unlimited()) return true;
    refill(now_ms);
    tokens_ -= n;
    return tokens_ > 0;
  }

  /// Deducts `n` tokens only when the balance covers them.
  bool try_take(double n, std::uint64_t now_ms) {
    if (unlimited()) return true;
    refill(now_ms);
    if (tokens_ < n) return false;
    tokens_ -= n;
    return true;
  }

  bool in_debt(std::uint64_t now_ms) {
    if (unlimited()) return false;
    refill(now_ms);
    return tokens_ <= 0;
  }

  double tokens() const noexcept { return tokens_; }
  /// True when the bucket has been idle long enough to be full again.
  bool full(std::uint64_t now_ms) {
    if (unlimited()) return true;
    refill(now_ms);
    return tokens_ >= burst_;
  }

 private:
  void refill(std::uint64_t now_ms) {
    if (!primed_) {  // the first observation pins the clock (even at t=0)
      primed_ = true;
      last_ms_ = now_ms;
      return;
    }
    if (now_ms <= last_ms_) return;
    tokens_ += rate_ * static_cast<double>(now_ms - last_ms_) / 1000.0;
    if (tokens_ > burst_) tokens_ = burst_;
    last_ms_ = now_ms;
  }

  double rate_ = 0;   // tokens per second; <= 0 = unlimited
  double burst_ = 0;  // bucket capacity
  double tokens_ = 0;
  bool primed_ = false;
  std::uint64_t last_ms_ = 0;
};

/// Per-session ingest policy applied by TcpTransport::set_ingest_limits().
struct IngestLimits {
  /// Byte-rate ceiling (token bucket). 0 = unlimited.
  double max_bytes_per_sec = 0;
  /// Bucket capacity; defaults to one second's worth when 0.
  double burst_bytes = 0;
  /// Inbound-queue bound: reads pause (EPOLLIN disarmed) once the queue
  /// holds at least this many bytes. 0 = unbounded.
  std::size_t queue_high_watermark = 0;
  /// Reads resume once the queue drains to this level; defaults to a
  /// quarter of the high watermark when 0.
  std::size_t queue_low_watermark = 0;
};

/// Per-source-address admission control for accept/reconnect storms: each
/// source gets its own token bucket; a connection is admitted only when a
/// token is available. Rejected sources keep their (empty) bucket, so a
/// storm stays rejected until it actually slows down. Buckets that have
/// fully recovered are pruned, bounding memory to the set of currently
/// noisy sources.
class AcceptGovernor {
 public:
  /// `rate_per_sec` accepts per source per second, bursting to `burst`
  /// (defaults to 2s worth). `registry` hosts the
  /// gill_overload_accepts_{admitted,rejected}_total counters; null uses
  /// metrics::default_registry().
  AcceptGovernor(double rate_per_sec, double burst = 0,
                 metrics::Registry* registry = nullptr);

  /// Admission check for one connection attempt from `source`.
  bool admit(const std::string& source, std::uint64_t now_ms);

  std::size_t tracked_sources() const noexcept { return buckets_.size(); }

 private:
  double rate_;
  double burst_;
  std::unordered_map<std::string, TokenBucket> buckets_;
  metrics::Counter& admitted_;
  metrics::Counter& rejected_;
};

}  // namespace gill::net
