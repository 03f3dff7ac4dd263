// Per-prefix bloom filter carried in each sealed segment's footer
// (DESIGN.md §15): it lets a prefix query prune whole segments the way the
// footer's time range and VP set already prune time/VP queries.
//
// The query semantics of GET /v1/data are "equal or more specific": a query
// prefix P matches a record whose prefix q satisfies P.covers(q). A plain
// membership filter over the record prefixes cannot answer "does any stored
// q lie under P", so the builder inserts, for every record prefix q, the
// keys of *all* of q's ancestors (q truncated to every length 0..len(q)).
// A segment may then contain a record under P exactly when P itself was
// inserted as an ancestor — one membership probe per segment, no false
// negatives, and a false-positive probability bounded by the classic
// (1 - e^{-kn/m})^k with k hashes over m bits for n distinct keys
// (~0.8% at the default 10 bits/key, k = 7).
//
// An *empty* filter (a pre-bloom v1 segment, or a store written before this
// format) answers may_cover() = true for everything: bloom-less segments
// fall back to scan-all, never to wrong answers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "netbase/prefix.hpp"

namespace gill::archive {

class PrefixBloom {
 public:
  /// Default sizing: bits per distinct key and probe count.
  static constexpr double kDefaultBitsPerKey = 10.0;
  static constexpr std::uint32_t kDefaultHashes = 7;
  /// Hard cap on the bit array (1 MiB) so one pathological segment can
  /// never bloat the footer/manifest unboundedly; past the cap the
  /// false-positive rate degrades gracefully instead.
  static constexpr std::uint64_t kMaxBits = 8ull * 1024 * 1024;

  /// Build phase: folds one record prefix in (the prefix and every one of
  /// its ancestors). A prefix seen before adds no key and returns at once,
  /// so a segment's repeats cost one set lookup. No-op after finalize().
  void observe(const net::Prefix& prefix);

  /// Freezes the key set into the bit array and releases the keys.
  /// Idempotent; an observe-less finalize yields an empty (match-all)
  /// filter.
  void finalize(double bits_per_key = kDefaultBitsPerKey,
                std::uint32_t hashes = kDefaultHashes);
  bool finalized() const noexcept { return !bits_.empty() || keys_.empty(); }

  /// True when no filter is present (nothing observed / v1 segment):
  /// may_cover() then always answers true.
  bool empty() const noexcept { return bits_.empty(); }

  /// May this segment contain a record prefix covered by `query`?
  /// Never a false negative; empty filters always answer true.
  bool may_cover(const net::Prefix& query) const noexcept;

  /// Distinct ancestor keys observed so far (build phase only).
  std::size_t key_count() const noexcept { return keys_.size(); }

  std::uint32_t hashes() const noexcept { return hashes_; }
  const std::vector<std::uint8_t>& bits() const noexcept { return bits_; }

  /// Binary form appended to the segment footer: hashes (u32 BE), byte
  /// length (u64 BE), then the bit array.
  void serialize(std::vector<std::uint8_t>& out) const;
  /// Restores a filter serialized at `at` inside `data`; advances `at`
  /// past it. nullopt on truncated/inconsistent input.
  static std::optional<PrefixBloom> deserialize(
      std::span<const std::uint8_t> data, std::size_t& at);

  /// Manifest (index.json) form: the bit array as lowercase hex.
  std::string to_hex() const;
  static std::optional<PrefixBloom> from_hex(std::string_view hex,
                                             std::uint32_t hashes);

  /// Equality compares the frozen filter only (probe count + bit array);
  /// un-finalized build state never round-trips and is ignored.
  friend bool operator==(const PrefixBloom& a, const PrefixBloom& b) {
    return a.hashes_ == b.hashes_ && a.bits_ == b.bits_;
  }

 private:
  bool probe(std::uint64_t key) const noexcept;

  std::unordered_set<std::uint64_t> keys_;  // build phase only
  /// Record prefixes already folded in (build phase only). Exact prefixes,
  /// not their 64-bit keys: a key collision must never skip an ancestor.
  std::unordered_set<net::Prefix, net::PrefixHash> observed_;
  std::uint32_t hashes_ = 0;
  std::vector<std::uint8_t> bits_;
};

}  // namespace gill::archive
