// Component #1 (§6, §17): find redundant BGP updates.
//   Step 1: build per-prefix correlation groups over a training window.
//   Step 2: per-prefix greedy VP selection by reconstitution power, keeping
//           all-or-nothing per (VP, prefix).
//   Step 3: cross-prefix deduplication — when several prefixes' selected
//           update sets are identical (up to the prefix and the 100 s time
//           slack), keep one representative prefix and classify the rest
//           as redundant.
// The output is exactly what filter generation (§7) consumes: the set of
// (VP, prefix) pairs whose updates are redundant.
#pragma once

#include <unordered_set>

#include "bgp/update.hpp"
#include "redundancy/reconstitution.hpp"

namespace gill::par {
class ThreadPool;
}  // namespace gill::par

namespace gill::red {

struct Component1Config {
  Timestamp correlation_window = bgp::kTimestampSlack;
  /// Stop the greedy selection once RP reaches this value (§17.2: 0.94).
  double rp_threshold = 0.94;
  /// Enable cross-prefix deduplication (step 3).
  bool cross_prefix = true;
};

/// A (VP, prefix) pair — the granularity of both classification and filters.
struct VpPrefix {
  VpId vp = 0;
  net::Prefix prefix;
  friend bool operator==(const VpPrefix&, const VpPrefix&) noexcept = default;
};

struct VpPrefixHash {
  std::size_t operator()(const VpPrefix& key) const noexcept {
    // splitmix64 finalizer: the VP id lands in the low bits, so the old
    // `prefix_hash * 31 + vp` clustered dense VP populations (0..N) into
    // runs of adjacent buckets; a full-width mix spreads both inputs.
    std::uint64_t x = net::hash_value(key.prefix) +
                      0x9E3779B97F4A7C15ull * (std::uint64_t{key.vp} + 1);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

using VpPrefixSet = std::unordered_set<VpPrefix, VpPrefixHash>;

struct Component1Result {
  /// (VP, prefix) pairs classified redundant — to be dropped by filters.
  VpPrefixSet redundant;
  /// (VP, prefix) pairs classified nonredundant — retained.
  VpPrefixSet nonredundant;
  std::size_t total_updates = 0;
  std::size_t nonredundant_updates = 0;  // |U|
  /// |U| / |V| — 0.16 after step 2, ~0.07 after step 3 on RIS/RV (§6).
  double retained_fraction() const {
    return total_updates == 0 ? 0.0
                              : static_cast<double>(nonredundant_updates) /
                                    static_cast<double>(total_updates);
  }
  /// Mean final reconstitution power across prefixes.
  double mean_rp = 0.0;
};

/// Runs the full Component #1 pipeline over a training stream. With a pool,
/// the per-prefix correlation/greedy stage (steps 1-2) fans out across the
/// workers; the output is byte-identical to the serial path (per-prefix work
/// is independent, and the cross-prefix aggregation preserves prefix order).
/// A null pool runs serially.
Component1Result find_redundant_updates(const bgp::UpdateStream& training,
                                        const Component1Config& config = {},
                                        par::ThreadPool* pool = nullptr);

}  // namespace gill::red
