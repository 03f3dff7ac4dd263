#include "inputs.hpp"

#include <algorithm>
#include <cstring>
#include <queue>
#include <random>
#include <tuple>

#include "archive/archive_writer.hpp"
#include "feed/live_feed.hpp"
#include "metrics/metrics.hpp"
#include "mrt/mrt.hpp"
#include "wire/messages.hpp"

namespace pb {

using namespace gill;

namespace {

constexpr bgp::AsNumber kFirstPeerAs = 65001;

bgp::Timestamp align_down(bgp::Timestamp time, bgp::Timestamp step) {
  return time - time % step;
}

}  // namespace

std::vector<SessionPool> make_session_pools(const bgp::UpdateStream& updates,
                                            std::size_t sessions,
                                            StreamFormat format) {
  std::vector<SessionPool> pools(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    pools[s].as = kFirstPeerAs + static_cast<bgp::AsNumber>(s);
  }
  for (const bgp::Update& update : updates) {
    const std::size_t s = update.vp % sessions;
    SessionPool& pool = pools[s];
    wire::UpdateMessage message;
    const bool v4 = update.prefix.family() == net::Family::v4;
    if (update.withdrawal) {
      (v4 ? message.withdrawn : message.withdrawn_v6).push_back(update.prefix);
    } else {
      (v4 ? message.nlri : message.nlri_v6).push_back(update.prefix);
      message.path = update.path;
      message.communities = update.communities;
      message.next_hop = 0x0A000002;
    }
    const auto bytes = wire::encode(message);
    pool.bytes.append(reinterpret_cast<const char*>(bytes.data()),
                      bytes.size());
    pool.ends.push_back(pool.bytes.size());

    // What the collector's daemon decodes from the message: the session's
    // VP, no path or communities on a withdrawal.
    bgp::Update expected;
    expected.vp = static_cast<bgp::VpId>(s);
    expected.prefix = update.prefix;
    expected.withdrawal = update.withdrawal;
    if (!update.withdrawal) {
      expected.path = update.path;
      expected.communities = update.communities;
    }
    if (format == StreamFormat::kJson) {
      std::string line = feed::encode_live_update(expected);
      const std::size_t key = line.find("\"timestamp\":");
      const std::size_t begin = key + std::strlen("\"timestamp\":");
      std::size_t end = begin;
      while (end < line.size() &&
             std::strchr("0123456789.eE+-", line[end]) != nullptr) {
        ++end;
      }
      pool.stamp.emplace_back(static_cast<std::uint32_t>(begin),
                              static_cast<std::uint32_t>(end));
      pool.expected.push_back(std::move(line));
    } else {
      mrt::Writer writer;
      writer.write_update(expected);
      pool.expected.emplace_back(writer.buffer().begin(),
                                 writer.buffer().end());
      pool.stamp.emplace_back(0u, 4u);
    }
    pool.updates.push_back(std::move(expected));
  }
  return pools;
}

bool record_matches(const SessionPool& pool, std::size_t index,
                    std::string_view record) {
  const std::string& expected = pool.expected[index];
  const auto [begin, end] = pool.stamp[index];
  const std::size_t tail = expected.size() - end;
  if (record.size() < begin + tail + 1) return false;
  if (std::memcmp(record.data(), expected.data(), begin) != 0) return false;
  if (std::memcmp(record.data() + record.size() - tail, expected.data() + end,
                  tail) != 0) {
    return false;
  }
  const std::string_view stamp =
      record.substr(begin, record.size() - tail - begin);
  if (end - begin == 4 && begin == 0) return stamp.size() == 4;  // MRT
  return std::all_of(stamp.begin(), stamp.end(), [](char c) {
    return std::strchr("0123456789.eE+-", c) != nullptr;
  });
}

net::Prefix remap_prefix(const net::Prefix& prefix, std::size_t replica) {
  const std::uint32_t value = (prefix.address().v4_value() & 0x00FFFFFFu) |
                              (static_cast<std::uint32_t>(10 + replica) << 24);
  return net::Prefix(net::IpAddress::v4(value), prefix.length());
}

bool ArchiveModel::build(const bgp::UpdateStream& window,
                         std::uint64_t target_bytes,
                         bgp::Timestamp span_secs) {
  base_ = window.updates();
  if (base_.empty()) return false;
  std::stable_sort(base_.begin(), base_.end(),
                   [](const bgp::Update& a, const bgp::Update& b) {
                     return a.time < b.time;
                   });
  // Same copy size and time span for every seed, so the archive's layout
  // (copies per segment, segments per copy) does not depend on how busy
  // the window happened to be; only its content does.
  if (base_.size() > kCopyUpdates) base_.resize(kCopyUpdates);
  const double first = static_cast<double>(base_.front().time);
  const double last = static_cast<double>(base_.back().time);
  offsets_.clear();
  for (const auto& update : base_) {
    if (update.prefix.family() != net::Family::v4 ||
        (update.prefix.address().v4_value() >> 24) != 10) {
      return false;
    }
    const double share =
        last > first ? (static_cast<double>(update.time) - first) / (last - first)
                     : 0.0;
    offsets_.push_back(static_cast<bgp::Timestamp>(
        share * static_cast<double>(kCopySpanSecs)));
  }
  span_ = offsets_.back();

  prefixes_.clear();
  for (const auto& update : base_) prefixes_.push_back(update.prefix);
  std::sort(prefixes_.begin(), prefixes_.end());
  prefixes_.erase(std::unique(prefixes_.begin(), prefixes_.end()),
                  prefixes_.end());
  prefix_counts_.assign(prefixes_.size(), 0);
  vps_.clear();
  for (const auto& update : base_) vps_.push_back(update.vp);
  std::sort(vps_.begin(), vps_.end());
  vps_.erase(std::unique(vps_.begin(), vps_.end()), vps_.end());
  vp_offsets_.assign(vps_.size(), {});
  for (std::size_t i = 0; i < base_.size(); ++i) {
    const auto p = std::lower_bound(prefixes_.begin(), prefixes_.end(),
                                    base_[i].prefix);
    ++prefix_counts_[static_cast<std::size_t>(p - prefixes_.begin())];
    const auto v = std::lower_bound(vps_.begin(), vps_.end(), base_[i].vp);
    vp_offsets_[static_cast<std::size_t>(v - vps_.begin())].push_back(
        offsets_[i]);
  }

  mrt::Writer writer;
  for (const auto& update : base_) writer.write_update(update);
  const double copy_bytes = static_cast<double>(writer.buffer().size());
  replicas_ = static_cast<std::size_t>(
      std::clamp(static_cast<double>(target_bytes) / copy_bytes + 0.999, 1.0,
                 240.0));
  stride_ = replicas_ > 1 && span_secs > span_
                ? std::max<bgp::Timestamp>(
                      1, (span_secs - span_) /
                             static_cast<bgp::Timestamp>(replicas_ - 1))
                : span_ + 1;
  return true;
}

bgp::Update ArchiveModel::record(std::size_t replica, std::size_t index) const {
  bgp::Update update = base_[index];
  update.time = time_of(replica, offsets_[index]);
  update.vp += kVpStride * static_cast<bgp::VpId>(replica);
  update.prefix = remap_prefix(update.prefix, replica);
  return update;
}

bool ArchiveModel::write(const std::string& directory) const {
  metrics::Registry registry;
  archive::SegmentWriterConfig config;
  config.directory = directory;
  config.rotate_secs = kWindowSecs;
  config.registry = &registry;
  archive::SegmentWriter writer(config);
  if (!writer.open()) return false;
  // Copies overlap in time: merge them so records arrive in time order,
  // as they would from a live collector.
  using Item = std::tuple<bgp::Timestamp, std::uint32_t, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (std::size_t r = 0; r < replicas_; ++r) {
    heap.emplace(time_of(r, offsets_[0]), static_cast<std::uint32_t>(r), 0u);
  }
  while (!heap.empty()) {
    const auto [time, r, i] = heap.top();
    heap.pop();
    writer.store(record(r, i));
    if (i + 1 < base_.size()) {
      heap.emplace(time_of(r, offsets_[i + 1]), r, i + 1);
    }
  }
  writer.close();
  return !writer.failed() && writer.records_appended() == records();
}

std::vector<Query> ArchiveModel::make_queries(std::uint64_t seed,
                                              std::size_t count) const {
  std::mt19937_64 rng(seed);
  std::vector<Query> queries;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  while (queries.size() < count) {
    std::string kinds = "PPPVVVRRRF";
    std::shuffle(kinds.begin(), kinds.end(), rng);
    for (const char kind : kinds) {
      Query query;
      query.kind = kind;
      auto& options = query.options;
      if (kind == 'P') {
        const std::size_t r = pick(replicas_);
        net::Prefix prefix = remap_prefix(prefixes_[pick(prefixes_.size())], r);
        if (prefix.length() > 24) {
          prefix = net::Prefix(
              net::IpAddress::v4(prefix.address().v4_value() & 0xFFFFFF00u),
              24);
        }
        options.prefix = prefix;
        query.target = "/v1/data?prefix=" + prefix.str();
      } else if (kind == 'V') {
        const std::size_t r = pick(replicas_);
        options.vp = vps_[pick(vps_.size())] +
                     kVpStride * static_cast<bgp::VpId>(r);
        options.start = align_down(
            time_of(r, static_cast<bgp::Timestamp>(pick(span_ + 1))),
            kWindowSecs);
        options.end = options.start + 8 * kWindowSecs;
        query.target = "/v1/data?vp=" + std::to_string(*options.vp) +
                       "&start=" + std::to_string(options.start) +
                       "&end=" + std::to_string(options.end);
      } else if (kind == 'R') {
        options.start = align_down(end_time() - 4 * kWindowSecs, kWindowSecs);
        query.target = "/v1/data?start=" + std::to_string(options.start);
      } else {
        query.target = "/v1/data";
      }
      query.expected = expected(options);
      queries.push_back(std::move(query));
    }
  }
  queries.resize(count);
  return queries;
}

std::uint64_t ArchiveModel::expected(
    const archive::QueryOptions& options) const {
  // Offsets of copy r that fall in [start, end).
  const auto in_range = [&](const std::vector<bgp::Timestamp>& offsets,
                            std::size_t r) -> std::uint64_t {
    const bgp::Timestamp base = time_of(r, 0);
    const auto lo =
        options.start <= base
            ? offsets.begin()
            : std::lower_bound(offsets.begin(), offsets.end(),
                               options.start - base);
    const auto hi =
        options.end <= base
            ? offsets.begin()
            : std::lower_bound(offsets.begin(), offsets.end(),
                               options.end - base);
    return hi > lo ? static_cast<std::uint64_t>(hi - lo) : 0;
  };
  if (options.prefix) {
    const std::size_t r = (options.prefix->address().v4_value() >> 24) - 10;
    const net::Prefix home = remap_prefix(*options.prefix, 0);
    std::uint64_t total = 0;
    for (std::size_t j = 0; j < prefixes_.size(); ++j) {
      if (home.covers(prefixes_[j])) total += prefix_counts_[j];
    }
    return r < replicas_ ? total : 0;
  }
  if (options.vp) {
    const std::size_t r = *options.vp / kVpStride;
    const auto v = std::lower_bound(vps_.begin(), vps_.end(),
                                    *options.vp % kVpStride);
    if (r >= replicas_ || v == vps_.end() || *v != *options.vp % kVpStride) {
      return 0;
    }
    return in_range(vp_offsets_[static_cast<std::size_t>(v - vps_.begin())],
                    r);
  }
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < replicas_; ++r) total += in_range(offsets_, r);
  return total;
}

}  // namespace pb
