// Generated inputs of the serving workloads: pre-encoded BGP sessions with
// the stream records each message must produce, and the synthetic archive
// the archive_query workload preloads, with the record count every query
// must return.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "archive/archive_reader.hpp"
#include "bgp/update.hpp"

namespace pb {

enum class StreamFormat { kJson, kMrt };

/// One BGP session's updates, encoded once during set-up so sending costs
/// the generator a copy. Message i decodes to updates[i]; a collector that
/// assigned the session VP id `vp` publishes expected[i] for it on
/// /v1/stream, except for the record's timestamp (the collector's clock).
struct SessionPool {
  gill::bgp::AsNumber as = 0;
  std::string bytes;                 // concatenated UPDATE messages
  std::vector<std::size_t> ends;     // end offset of message i in `bytes`
  std::vector<gill::bgp::Update> updates;
  std::vector<std::string> expected;
  /// [begin, end) of the timestamp inside expected[i] (JSON: the number
  /// after "timestamp":, MRT: the first four header bytes).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stamp;

  std::size_t size() const { return ends.size(); }
};

/// Splits `updates` over `sessions` BGP sessions by source VP (session
/// AS 65001 + i) and pre-encodes them; session i is expected to be VP i.
std::vector<SessionPool> make_session_pools(
    const gill::bgp::UpdateStream& updates, std::size_t sessions,
    StreamFormat format);

/// True when `record` is `pool.expected[index]` up to its timestamp.
bool record_matches(const SessionPool& pool, std::size_t index,
                    std::string_view record);

/// One /v1/data request with the number of records the preload says it
/// must return.
struct Query {
  char kind = 'F';  // P prefix, V vp+window, R recent window, F full scan
  gill::archive::QueryOptions options;
  std::string target;  // request target, e.g. /v1/data?prefix=...
  std::uint64_t expected = 0;
};

/// A synthetic archive built from one update window: `replicas` copies,
/// copy r shifted by r * stride seconds, with VP ids offset by
/// kVpStride * r and IPv4 prefixes moved into first octet 10 + r. Each copy
/// is one slice of a larger routing system observed for a while, so
/// segments hold many VPs and prefixes and prefix / VP queries prune.
class ArchiveModel {
 public:
  static constexpr gill::bgp::VpId kVpStride = 100;
  static constexpr gill::bgp::Timestamp kWindowSecs = 900;
  /// Each copy holds the window's first kCopyUpdates updates, their times
  /// rescaled onto kCopySpanSecs.
  static constexpr std::size_t kCopyUpdates = 16000;
  static constexpr gill::bgp::Timestamp kCopySpanSecs = 2 * 3600;

  /// Sizes the archive to about `target_bytes` of MRT spread over about
  /// `span_secs` of logical time. False when the window does not fit the
  /// remapping (non-IPv4 or outside 10.0.0.0/8 prefixes).
  bool build(const gill::bgp::UpdateStream& window, std::uint64_t target_bytes,
             gill::bgp::Timestamp span_secs);

  /// Preloads `directory` through archive::SegmentWriter (raw codec,
  /// default 900 s windows, logical clock). False on I/O failure.
  bool write(const std::string& directory) const;

  /// The seeded query mix: blocks of ten with three prefix, three VP +
  /// window, three recent-window queries and one full scan, shuffled.
  std::vector<Query> make_queries(std::uint64_t seed, std::size_t count) const;
  std::uint64_t expected(const gill::archive::QueryOptions& options) const;

  std::uint64_t records() const { return base_.size() * replicas_; }
  std::size_t replicas() const { return replicas_; }
  gill::bgp::Timestamp end_time() const { return time_of(replicas_ - 1, span_); }

 private:
  gill::bgp::Timestamp time_of(std::size_t replica,
                               gill::bgp::Timestamp offset) const {
    return start_ + static_cast<gill::bgp::Timestamp>(replica) * stride_ +
           offset;
  }
  gill::bgp::Update record(std::size_t replica, std::size_t index) const;

  std::vector<gill::bgp::Update> base_;            // time-sorted
  std::vector<gill::bgp::Timestamp> offsets_;      // base_[i].time - min
  std::vector<gill::net::Prefix> prefixes_;        // distinct base prefixes
  std::vector<std::uint64_t> prefix_counts_;       // records per prefix
  std::vector<gill::bgp::VpId> vps_;               // distinct base VPs
  std::vector<std::vector<gill::bgp::Timestamp>> vp_offsets_;  // per vps_
  std::size_t replicas_ = 0;
  gill::bgp::Timestamp start_ = 900 * 1000;
  gill::bgp::Timestamp stride_ = 0;
  gill::bgp::Timestamp span_ = 0;  // last base offset
};

/// Moves an IPv4 prefix of 10.0.0.0/8 into first octet 10 + replica.
gill::net::Prefix remap_prefix(const gill::net::Prefix& prefix,
                               std::size_t replica);

}  // namespace pb
