#include "archive/bloom.hpp"

#include <algorithm>

namespace gill::archive {

namespace {

/// splitmix64 finalizer: decorrelates the second probe stream from the
/// first so double hashing behaves like independent hash functions.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t prefix_key(const net::Prefix& prefix) noexcept {
  return hash_value(prefix);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 24));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint32_t get_u32(std::span<const std::uint8_t> data, std::size_t at) {
  return (static_cast<std::uint32_t>(data[at]) << 24) |
         (static_cast<std::uint32_t>(data[at + 1]) << 16) |
         (static_cast<std::uint32_t>(data[at + 2]) << 8) |
         static_cast<std::uint32_t>(data[at + 3]);
}

constexpr int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

void PrefixBloom::observe(const net::Prefix& prefix) {
  if (!bits_.empty()) return;  // frozen
  if (!observed_.insert(prefix).second) return;  // its ancestors are in
  // The prefix plus all of its ancestors: a query for any covering prefix
  // finds its own key in the set.
  for (unsigned length = 0; length <= prefix.length(); ++length) {
    keys_.insert(prefix_key(net::Prefix(prefix.address(), length)));
  }
}

void PrefixBloom::finalize(double bits_per_key, std::uint32_t hashes) {
  observed_ = {};
  if (!bits_.empty() || keys_.empty()) {
    keys_.clear();
    return;
  }
  const double wanted = bits_per_key * static_cast<double>(keys_.size());
  std::uint64_t bit_count = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(wanted) + 1, 64, kMaxBits);
  bit_count = (bit_count + 7) & ~7ull;  // whole bytes
  bits_.assign(bit_count / 8, 0);
  hashes_ = std::max(1u, hashes);
  for (const std::uint64_t key : keys_) {
    const std::uint64_t h2 = mix(key) | 1;  // odd: full-period stride
    std::uint64_t h = key;
    for (std::uint32_t i = 0; i < hashes_; ++i, h += h2) {
      const std::uint64_t bit = h % bit_count;
      bits_[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
  keys_.clear();
}

bool PrefixBloom::probe(std::uint64_t key) const noexcept {
  const std::uint64_t bit_count = 8ull * bits_.size();
  const std::uint64_t h2 = mix(key) | 1;
  std::uint64_t h = key;
  for (std::uint32_t i = 0; i < hashes_; ++i, h += h2) {
    const std::uint64_t bit = h % bit_count;
    if ((bits_[bit / 8] & (1u << (bit % 8))) == 0) return false;
  }
  return true;
}

bool PrefixBloom::may_cover(const net::Prefix& query) const noexcept {
  if (bits_.empty()) return true;  // no filter: scan-all fallback
  return probe(prefix_key(query));
}

void PrefixBloom::serialize(std::vector<std::uint8_t>& out) const {
  put_u32(out, hashes_);
  put_u32(out, static_cast<std::uint32_t>(bits_.size() >> 32));
  put_u32(out, static_cast<std::uint32_t>(bits_.size()));
  out.insert(out.end(), bits_.begin(), bits_.end());
}

std::optional<PrefixBloom> PrefixBloom::deserialize(
    std::span<const std::uint8_t> data, std::size_t& at) {
  if (data.size() < at || data.size() - at < 12) return std::nullopt;
  PrefixBloom bloom;
  bloom.hashes_ = get_u32(data, at);
  const std::uint64_t bytes =
      (static_cast<std::uint64_t>(get_u32(data, at + 4)) << 32) |
      get_u32(data, at + 8);
  at += 12;
  if (bytes > kMaxBits / 8 || data.size() - at < bytes) return std::nullopt;
  if (bytes > 0 && bloom.hashes_ == 0) return std::nullopt;
  bloom.bits_.assign(data.begin() + static_cast<std::ptrdiff_t>(at),
                     data.begin() + static_cast<std::ptrdiff_t>(at + bytes));
  at += bytes;
  return bloom;
}

std::string PrefixBloom::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bits_.size() * 2);
  for (const std::uint8_t byte : bits_) {
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

std::optional<PrefixBloom> PrefixBloom::from_hex(std::string_view hex,
                                                 std::uint32_t hashes) {
  if (hex.size() % 2 != 0 || hex.size() / 2 > kMaxBits / 8) {
    return std::nullopt;
  }
  PrefixBloom bloom;
  bloom.hashes_ = hashes;
  if (!hex.empty() && hashes == 0) return std::nullopt;
  bloom.bits_.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_digit(hex[i]);
    const int lo = hex_digit(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    bloom.bits_.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return bloom;
}

}  // namespace gill::archive
