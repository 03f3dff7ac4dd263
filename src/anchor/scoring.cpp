#include "anchor/scoring.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "features/vp_graph.hpp"
#include "parallel/thread_pool.hpp"

namespace gill::anchor {

EventFeatureExtractor::EventFeatureExtractor(std::vector<VpId> vps)
    : vps_(std::move(vps)) {}

std::vector<EventFeatureMatrix> EventFeatureExtractor::extract(
    const UpdateStream& rib_dump, const UpdateStream& updates,
    const std::vector<AnchorEvent>& events) {
  const std::size_t v = vps_.size();
  std::unordered_map<VpId, std::size_t> vp_index;
  for (std::size_t i = 0; i < v; ++i) vp_index[vps_[i]] = i;

  // Current graphs and routes per VP.
  std::vector<feat::VpGraph> graphs(v);
  std::vector<bgp::Rib> ribs(v);
  auto apply = [&](const bgp::Update& update) {
    const auto it = vp_index.find(update.vp);
    if (it == vp_index.end()) return;
    const std::size_t index = it->second;
    const bgp::Route* old_route = ribs[index].find(update.prefix);
    const bgp::AsPath old_path = old_route ? old_route->path : bgp::AsPath{};
    const bgp::AsPath new_path =
        update.withdrawal ? bgp::AsPath{} : update.path;
    graphs[index].replace_route(old_path, new_path);
    ribs[index].apply(update);
  };
  for (const auto& update : rib_dump) apply(update);

  // Per-event start snapshots (node features of both ASes + pair features).
  struct Snapshot {
    std::vector<feat::NodeFeatures> node1, node2;
    std::vector<feat::PairFeatures> pair;
  };
  std::vector<Snapshot> snapshots(events.size());
  std::vector<EventFeatureMatrix> matrices(events.size());

  auto snapshot_event = [&](std::size_t event_index, bool at_start) {
    const AnchorEvent& event = events[event_index];
    Snapshot& snap = snapshots[event_index];
    if (at_start) {
      snap.node1.resize(v);
      snap.node2.resize(v);
      snap.pair.resize(v);
    } else {
      matrices[event_index].rows.resize(v);
    }
    for (std::size_t i = 0; i < v; ++i) {
      const feat::FeatureComputer computer(graphs[i]);
      const auto n1 = computer.node_features(event.as1);
      const auto n2 = computer.node_features(event.as2);
      const auto p = computer.pair_features(event.as1, event.as2);
      if (at_start) {
        snap.node1[i] = n1;
        snap.node2[i] = n2;
        snap.pair[i] = p;
      } else {
        feat::EventVector& row = matrices[event_index].rows[i];
        for (std::size_t f = 0; f < feat::kNodeFeatureCount; ++f) {
          row[2 * f] = snap.node1[i][f] - n1[f];
          row[2 * f + 1] = snap.node2[i][f] - n2[f];
        }
        for (std::size_t f = 0; f < feat::kPairFeatureCount; ++f) {
          row[2 * feat::kNodeFeatureCount + f] = snap.pair[i][f] - p[f];
        }
      }
    }
  };

  // Merge-walk: boundaries (event starts/ends) interleaved with updates.
  struct Boundary {
    bgp::Timestamp time;
    std::size_t event_index;
    bool is_start;
  };
  std::vector<Boundary> boundaries;
  boundaries.reserve(events.size() * 2);
  for (std::size_t i = 0; i < events.size(); ++i) {
    boundaries.push_back({events[i].start, i, true});
    boundaries.push_back({events[i].end, i, false});
  }
  std::sort(boundaries.begin(), boundaries.end(),
            [](const Boundary& a, const Boundary& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.is_start > b.is_start;  // starts before ends
            });

  std::size_t update_cursor = 0;
  const auto& stream = updates.updates();
  for (const Boundary& boundary : boundaries) {
    // Apply every update strictly before the boundary (start snapshots see
    // the pre-event graph; end snapshots see everything up to the end).
    const bgp::Timestamp limit =
        boundary.is_start ? boundary.time : boundary.time + 1;
    while (update_cursor < stream.size() &&
           stream[update_cursor].time < limit) {
      apply(stream[update_cursor]);
      ++update_cursor;
    }
    snapshot_event(boundary.event_index, boundary.is_start);
  }
  return matrices;
}

void normalize_columns(EventFeatureMatrix& matrix) {
  const std::size_t rows = matrix.rows.size();
  if (rows == 0) return;
  for (std::size_t column = 0; column < feat::kEventVectorSize; ++column) {
    double mean = 0.0;
    for (const auto& row : matrix.rows) mean += row[column];
    mean /= static_cast<double>(rows);
    double variance = 0.0;
    for (const auto& row : matrix.rows) {
      const double d = row[column] - mean;
      variance += d * d;
    }
    variance /= static_cast<double>(rows);
    const double stddev = std::sqrt(variance);
    for (auto& row : matrix.rows) {
      row[column] = stddev > 0.0 ? (row[column] - mean) / stddev : 0.0;
    }
  }
}

namespace {

/// FNV-1a over the bit patterns of a VP's normalized feature rows across
/// the refresh's event set — the "feature epoch" keying the score cache.
/// Equal epochs mean the rows (and the event count) are identical, so a
/// cached distance equals what a recompute would produce bit for bit.
std::uint64_t feature_epoch(const std::vector<EventFeatureMatrix*>& used,
                            std::size_t row) {
  std::uint64_t h = 14695981039346656037ull;
  for (const EventFeatureMatrix* matrix : used) {
    for (std::size_t f = 0; f < feat::kEventVectorSize; ++f) {
      std::uint64_t bits;
      static_assert(sizeof bits == sizeof(double));
      std::memcpy(&bits, &matrix->rows[row][f], sizeof bits);
      h ^= bits;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t pair_key(bgp::VpId a, bgp::VpId b) {
  if (a > b) std::swap(a, b);
  return (std::uint64_t{a} << 32) | std::uint64_t{b};
}

}  // namespace

std::vector<std::vector<double>> redundancy_scores(
    std::vector<EventFeatureMatrix> matrices, const std::vector<VpId>& vps,
    par::ThreadPool* pool, ScoreCache* cache) {
  std::size_t v = 0;
  for (const auto& matrix : matrices) v = std::max(v, matrix.rows.size());
  std::vector<std::vector<double>> distance(v, std::vector<double>(v, 0.0));
  if (v == 0) return distance;

  // Events whose matrix covers every VP participate; normalization is
  // per-matrix independent, so it fans out across the pool.
  std::vector<EventFeatureMatrix*> used;
  used.reserve(matrices.size());
  for (auto& matrix : matrices) {
    if (matrix.rows.size() == v) used.push_back(&matrix);
  }
  const std::size_t used_events = used.size();
  if (used_events == 0) return distance;
  const auto normalize = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) normalize_columns(*used[i]);
  };
  if (pool != nullptr && used_events > 1) {
    pool->parallel_for(used_events, normalize);
  } else {
    normalize(0, used_events);
  }

  // Feature epochs, only needed when the cache can key by VP id.
  const bool use_cache = cache != nullptr && vps.size() == v;
  std::vector<std::uint64_t> epochs;
  if (use_cache) {
    epochs.resize(v);
    const auto hash_rows = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        epochs[i] = feature_epoch(used, i);
      }
    };
    if (pool != nullptr && v > 1) {
      pool->parallel_for(v, hash_rows);
    } else {
      hash_rows(0, v);
    }
  }

  // The O(V²) pairwise stage, sharded by row across the upper triangle.
  // Each cell belongs to exactly one shard and accumulates its events in
  // matrix order — the serial path's floating-point sequence — so the
  // result is identical at any thread count. Cache reads are const here;
  // writes happen after the join, on the calling thread.
  std::atomic<std::uint64_t> pair_hits{0};
  std::atomic<std::uint64_t> pair_misses{0};
  const auto score_rows = [&](std::size_t begin, std::size_t end) {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (std::size_t n = begin; n < end; ++n) {
      for (std::size_t m = n + 1; m < v; ++m) {
        double averaged = 0.0;
        bool cached = false;
        if (use_cache) {
          const auto it = cache->pairs.find(pair_key(vps[n], vps[m]));
          if (it != cache->pairs.end()) {
            const auto lo = vps[n] <= vps[m] ? n : m;
            const auto hi = vps[n] <= vps[m] ? m : n;
            if (it->second.epoch_a == epochs[lo] &&
                it->second.epoch_b == epochs[hi]) {
              averaged = it->second.distance;
              cached = true;
            }
          }
        }
        if (!cached) {
          double acc = 0.0;
          for (const EventFeatureMatrix* matrix : used) {
            double sum = 0.0;
            for (std::size_t f = 0; f < feat::kEventVectorSize; ++f) {
              const double d = matrix->rows[n][f] - matrix->rows[m][f];
              sum += d * d;  // the paper's ⋄ has no square root
            }
            acc += sum;
          }
          averaged = acc / static_cast<double>(used_events);
        }
        distance[n][m] = averaged;
        distance[m][n] = averaged;
        if (use_cache) cached ? ++hits : ++misses;
      }
    }
    pair_hits.fetch_add(hits, std::memory_order_relaxed);
    pair_misses.fetch_add(misses, std::memory_order_relaxed);
  };
  if (pool != nullptr && v > 2) {
    pool->parallel_for(v, score_rows);
  } else {
    score_rows(0, v);
  }
  if (use_cache) {
    cache->hits += pair_hits.load(std::memory_order_relaxed);
    cache->misses += pair_misses.load(std::memory_order_relaxed);
    for (std::size_t n = 0; n < v; ++n) {
      for (std::size_t m = n + 1; m < v; ++m) {
        const auto lo = vps[n] <= vps[m] ? n : m;
        const auto hi = vps[n] <= vps[m] ? m : n;
        cache->pairs[pair_key(vps[n], vps[m])] =
            ScoreCache::Entry{epochs[lo], epochs[hi], distance[n][m]};
      }
    }
  }

  double min_distance = std::numeric_limits<double>::infinity();
  double max_distance = 0.0;
  for (std::size_t n = 0; n < v; ++n) {
    for (std::size_t m = n + 1; m < v; ++m) {
      min_distance = std::min(min_distance, distance[n][m]);
      max_distance = std::max(max_distance, distance[n][m]);
    }
  }
  const double range = max_distance - min_distance;
  std::vector<std::vector<double>> scores(v, std::vector<double>(v, 1.0));
  for (std::size_t n = 0; n < v; ++n) {
    for (std::size_t m = 0; m < v; ++m) {
      if (n == m) continue;
      scores[n][m] =
          range > 0.0
              ? 1.0 - (distance[n][m] - min_distance) / range
              : 1.0;  // indistinguishable VPs are maximally redundant
    }
  }
  return scores;
}

std::vector<std::vector<double>> redundancy_scores(
    std::vector<EventFeatureMatrix> matrices) {
  return redundancy_scores(std::move(matrices), {}, nullptr, nullptr);
}

}  // namespace gill::anchor
