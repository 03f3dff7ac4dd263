#include "world.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "simulator/workload.hpp"
#include "topology/generator.hpp"
#include "util.hpp"

namespace pb {

using namespace gill;

namespace {

/// Event schedule of window k is kEventSeed + k, the schedule
/// bench_parallel_refresh trains on.
constexpr std::uint64_t kEventSeed = 93;

}  // namespace

World make_world() {
  World world;
  world.topology = std::make_unique<topo::AsTopology>(
      topo::generate_artificial({.as_count = 400, .seed = 91}));
  sim::InternetConfig config;
  for (bgp::AsNumber as = 0; as < 340; as += 5) config.vp_hosts.push_back(as);
  config.rng_seed = 92;
  config.path_exploration_probability = 0.35;
  world.internet = std::make_unique<sim::Internet>(*world.topology, config);
  return world;
}

std::vector<bgp::UpdateStream> make_windows(World& world, std::uint64_t seed,
                                            std::size_t count,
                                            bgp::Timestamp duration) {
  std::vector<bgp::VpId> label(world.internet->vp_hosts().size());
  std::iota(label.begin(), label.end(), bgp::VpId{0});
  std::mt19937_64 rng(mix_seed(seed, 1));
  std::shuffle(label.begin(), label.end(), rng);
  std::vector<bgp::UpdateStream> windows;
  for (std::size_t k = 0; k < count; ++k) {
    sim::WorkloadConfig workload;
    workload.seed = kEventSeed + k;
    workload.duration = duration;
    workload.link_failures_per_hour = 50;
    workload.hotspot_fraction = 0.2;
    windows.push_back(sim::generate_workload(
        *world.internet, static_cast<bgp::Timestamp>(10 + k * duration),
        workload));
    for (auto& update : windows.back().updates()) {
      update.vp = label.at(update.vp);
    }
  }
  return windows;
}

std::pair<bgp::UpdateStream, bgp::UpdateStream> halves(
    const bgp::UpdateStream& window) {
  if (window.empty()) return {};
  const auto& updates = window.updates();
  const bgp::Timestamp middle = updates[updates.size() / 2].time;
  return {window.window(0, middle),
          window.window(middle, updates.back().time + 1)};
}

}  // namespace pb
