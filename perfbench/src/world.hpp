// The simulated Internet every workload draws its updates from: the world
// bench_parallel_refresh trains on (400 ASes, a VP on every fifth AS below
// AS 340 = 68 VPs, path exploration on). The topology and the event
// schedule are fixed; the workload seed relabels the VPs. What the
// collector and the pipeline spend per update follows the window's events
// (up to +-20% between schedules), so a fixed schedule keeps runs with
// different seeds comparable while still giving each seed its own inputs:
// other VP ids, so other session splits, hash layouts and anchor ties.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bgp/update.hpp"
#include "simulator/internet.hpp"
#include "topology/generator.hpp"

namespace pb {

struct World {
  std::unique_ptr<gill::topo::AsTopology> topology;
  std::unique_ptr<gill::sim::Internet> internet;
};

World make_world();

/// `count` successive windows of `duration` seconds, starting at time 10,
/// each time-sorted, VPs relabelled by a permutation drawn from `seed`.
/// Consecutive windows share the workload generator's hotspot pool, so
/// filters trained on one match the next.
std::vector<gill::bgp::UpdateStream> make_windows(World& world,
                                                  std::uint64_t seed,
                                                  std::size_t count,
                                                  gill::bgp::Timestamp duration);

/// `window` split at its median timestamp: a training half and the half
/// that follows it.
std::pair<gill::bgp::UpdateStream, gill::bgp::UpdateStream> halves(
    const gill::bgp::UpdateStream& window);

}  // namespace pb
