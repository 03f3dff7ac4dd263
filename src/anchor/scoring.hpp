// Steps 2-3 of Component #2 (§18.2-§18.3): per-event per-VP feature-delta
// vectors, column normalization, pairwise Euclidean distances, and the
// min-max-scaled redundancy scores R(vn, vm) in [0, 1] (1 = most redundant).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "anchor/event_selection.hpp"
#include "bgp/rib.hpp"
#include "features/features.hpp"

namespace gill::par {
class ThreadPool;
}  // namespace gill::par

namespace gill::anchor {

using bgp::UpdateStream;
using bgp::VpId;

/// Feature matrix M(e): one 15-dim row per VP.
struct EventFeatureMatrix {
  std::vector<feat::EventVector> rows;  // indexed by VP position
};

/// Replays a stream while maintaining per-VP graphs and snapshots the
/// Table 6 features of each event's AS pair at the event's start and end.
class EventFeatureExtractor {
 public:
  /// `vps` lists the VPs (rows of every matrix, in this order).
  explicit EventFeatureExtractor(std::vector<VpId> vps);

  /// `rib_dump` seeds the initial graphs; `updates` is the collection
  /// stream covering every event window; `events` must be start-sorted.
  std::vector<EventFeatureMatrix> extract(
      const UpdateStream& rib_dump, const UpdateStream& updates,
      const std::vector<AnchorEvent>& events);

  const std::vector<VpId>& vps() const noexcept { return vps_; }

 private:
  std::vector<VpId> vps_;
};

/// §18.3 step 1: z-normalizes each column of M(e) in place (mean 0, unit
/// standard deviation; constant columns become zero).
void normalize_columns(EventFeatureMatrix& matrix);

/// Cross-refresh memo for the pairwise distances: one entry per unordered
/// VP pair, keyed by the two VPs' feature epochs (a hash of each VP's
/// normalized feature rows across the refresh's event set). When neither
/// VP's features changed since the last refresh, the averaged distance is
/// reused instead of rescored — bit-identical, because the cached value was
/// produced by exactly the arithmetic a recompute would run. The min-max
/// scaling still runs per refresh (it is global across pairs).
struct ScoreCache {
  struct Entry {
    std::uint64_t epoch_a = 0;  // epoch of the lower VP id
    std::uint64_t epoch_b = 0;  // epoch of the higher VP id
    double distance = 0.0;      // event-averaged squared distance
  };
  /// Key: (min(vpA,vpB) << 32) | max(vpA,vpB).
  std::unordered_map<std::uint64_t, Entry> pairs;
  std::uint64_t hits = 0;    // pairs served from the cache (lifetime)
  std::uint64_t misses = 0;  // pairs rescored (lifetime)
};

/// §18.3 steps 2-3: pairwise redundancy scores in [0, 1]. Distances are the
/// paper's sum of squared differences, averaged over events, then min-max
/// inverted. Returns a symmetric VxV matrix (diagonal = 1).
///
/// With a pool, column normalization fans out per event and the V×V upper
/// triangle is sharded by row across the workers; every cell is computed by
/// exactly one shard with the serial path's arithmetic, so the matrix is
/// byte-identical at any thread count (a null pool runs the serial path).
/// `vps` (parallel to the matrix rows) enables the cross-refresh `cache`;
/// pass it empty to disable caching.
std::vector<std::vector<double>> redundancy_scores(
    std::vector<EventFeatureMatrix> matrices,
    const std::vector<VpId>& vps, par::ThreadPool* pool = nullptr,
    ScoreCache* cache = nullptr);

/// Serial, cache-free convenience overload (the PR-3 signature).
std::vector<std::vector<double>> redundancy_scores(
    std::vector<EventFeatureMatrix> matrices);

}  // namespace gill::anchor
