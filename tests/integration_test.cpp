// Cross-module integration tests: the full GILL loop — simulate, collect,
// analyze, filter, re-collect — plus platform + archive round trips and
// end-to-end determinism.
#include <gtest/gtest.h>

#include <cstdio>

#include "collector/platform.hpp"
#include "collector/vetting.hpp"
#include "mrt/mrt.hpp"
#include "netbase/prefix_alloc.hpp"
#include "sampling/schemes.hpp"
#include "simulator/workload.hpp"
#include "topology/generator.hpp"
#include "usecases/detectors.hpp"

namespace gill {
namespace {

struct World {
  topo::AsTopology topology;
  sim::InternetConfig config;
  std::unique_ptr<sim::Internet> internet;
  bgp::UpdateStream ribs;
  bgp::UpdateStream training;
  bgp::UpdateStream eval;

  explicit World(std::uint64_t seed) {
    topology = topo::generate_artificial({.as_count = 250, .seed = seed});
    for (bgp::AsNumber as = 0; as < 250; as += 5) {
      config.vp_hosts.push_back(as);
    }
    std::mt19937_64 prefix_rng(seed + 1);
    config.prefixes = net::PrefixAllocator::assign(250, prefix_rng, 4);
    config.rng_seed = seed + 2;
    internet = std::make_unique<sim::Internet>(topology, config);
    ribs = internet->rib_dump(0);

    sim::WorkloadConfig training_workload;
    training_workload.seed = seed + 3;
    training_workload.duration = 2 * 3600;
    training_workload.hotspot_fraction = 0.3;
    training = sim::generate_workload(*internet, 10, training_workload);
    internet->ground_truth().clear();

    sim::WorkloadConfig eval_workload;
    eval_workload.seed = seed + 4;
    eval_workload.hotspot_fraction = 0.3;
    eval = sim::generate_workload(*internet, 3 * 3600, eval_workload);
  }
};

TEST(Integration, FullPipelineInvariants) {
  World world(1000);
  const auto categories = topo::classify_ases(world.topology);
  const auto result = sample::run_gill_pipeline(world.ribs, world.training,
                                                categories, {});

  // Every (vp, prefix) pair of the training data is classified exactly once.
  for (const auto& pair : result.component1.nonredundant) {
    EXPECT_FALSE(result.component1.redundant.contains(pair));
  }
  // Filters never drop a pair classified nonredundant.
  for (const auto& pair : result.component1.nonredundant) {
    bgp::Update probe;
    probe.vp = pair.vp;
    probe.prefix = pair.prefix;
    EXPECT_TRUE(result.filters.accept(probe));
  }
  // Anchors are a subset of the training VPs.
  const auto vps = world.training.vps();
  for (const bgp::VpId anchor : result.anchors) {
    EXPECT_TRUE(std::binary_search(vps.begin(), vps.end(), anchor));
  }
  // Applying the filters to the training stream retains at least the
  // nonredundant fraction (anchors add more on top).
  const auto stats = filt::apply_filters(result.filters, world.training);
  EXPECT_GE(1.0 - stats.matched_fraction(),
            result.component1.retained_fraction() - 1e-9);
}

TEST(Integration, PipelineIsDeterministic) {
  World a(2000);
  World b(2000);
  const auto categories = topo::classify_ases(a.topology);
  const auto ra = sample::run_gill_pipeline(a.ribs, a.training, categories, {});
  const auto rb = sample::run_gill_pipeline(b.ribs, b.training, categories, {});
  EXPECT_EQ(ra.anchors, rb.anchors);
  EXPECT_EQ(ra.filters.drop_rule_count(), rb.filters.drop_rule_count());
  EXPECT_EQ(ra.component1.redundant.size(), rb.component1.redundant.size());
  // The filters take identical decisions on the evaluation stream.
  for (const auto& update : a.eval) {
    EXPECT_EQ(ra.filters.accept(update), rb.filters.accept(update));
  }
}

TEST(Integration, SampledDataRoundTripsThroughMrt) {
  World world(3000);
  sample::SamplingContext ctx;
  ctx.all_updates = &world.eval;
  ctx.all_ribs = &world.ribs;
  ctx.training = &world.training;
  ctx.training_ribs = &world.ribs;
  ctx.topology = &world.topology;
  ctx.vp_hosts = &world.config.vp_hosts;
  ctx.seed = 5;

  sample::GillSampler gill;
  const auto sample = gill.sample(ctx, 0);
  ASSERT_GT(sample.updates.size(), 0u);

  const std::string path = "/tmp/gill_integration_archive.mrt";
  ASSERT_TRUE(mrt::write_stream(sample.updates, path));
  const auto loaded = mrt::read_stream(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), sample.updates.size());
  for (std::size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ(loaded->updates()[i], sample.updates.updates()[i]);
  }

  // Analyses work identically on the reloaded archive.
  uc::DataSample original;
  original.updates = sample.updates;
  uc::DataSample reloaded;
  reloaded.updates = *loaded;
  EXPECT_EQ(uc::observed_links(original).size(),
            uc::observed_links(reloaded).size());
}

TEST(Integration, VettingToPlatformToArchive) {
  // The §9 onboarding path: vet two peers, exchange routes, refresh
  // filters, store, reload.
  collect::AsOwnershipRegistry registry;
  registry.register_owner("a.example", 65001);
  registry.register_owner("b.example", 65002);
  collect::PeeringVetting vetting(registry);
  const auto t1 = vetting.submit({65001, "noc@a.example", "192.0.2.1"});
  const auto t2 = vetting.submit({65002, "noc@b.example", "192.0.2.2"});
  ASSERT_EQ(vetting.confirm(t1, "noc@a.example"),
            collect::VettingOutcome::kAccepted);
  ASSERT_EQ(vetting.confirm(t2, "noc@b.example"),
            collect::VettingOutcome::kAccepted);

  collect::Platform platform;
  std::vector<bgp::VpId> vps;
  for (const auto& peer : vetting.accepted()) {
    vps.push_back(platform.add_peer(peer.as, 0));
  }
  platform.step(1);

  for (int round = 0; round < 4; ++round) {
    for (const bgp::VpId vp : vps) {
      bgp::Update update;
      update.prefix = net::Prefix::parse("203.0.113.0/24").value();
      update.path =
          round % 2 ? bgp::AsPath{65001, 64500} : bgp::AsPath{65001, 64501,
                                                              64500};
      platform.remote(vp).send_update(update);
    }
    platform.step(10 + round * 500);
  }
  EXPECT_EQ(platform.store().stored(), 8u);
  platform.refresh_filters();
  EXPECT_GE(platform.filters().drop_rule_count() +
                platform.filters().anchors().size(),
            1u);

  const std::string path = "/tmp/gill_integration_platform.mrt";
  ASSERT_TRUE(platform.store().save(path));
  const auto loaded = mrt::read_stream(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 8u);
}

TEST(Integration, GillBudgetBeatsRandomUpdatesOnVisibility) {
  World world(4000);
  const auto truths = world.internet->ground_truth();
  const auto origins = uc::OriginTable::from_rib(world.ribs);

  sample::SamplingContext ctx;
  ctx.all_updates = &world.eval;
  ctx.all_ribs = &world.ribs;
  ctx.training = &world.training;
  ctx.training_ribs = &world.ribs;
  ctx.topology = &world.topology;
  ctx.vp_hosts = &world.config.vp_hosts;
  ctx.truths = &truths;
  ctx.origins = &origins;
  ctx.seed = 6;

  sample::GillSampler gill;
  const auto gill_sample = gill.sample(ctx, 0);
  const std::size_t budget = gill_sample.updates.size();
  ASSERT_GT(budget, 0u);
  ASSERT_LT(budget, world.eval.size());

  sample::RandomUpdateSampler random;
  const auto random_sample = random.sample(ctx, budget);

  // Same budget: GILL's link visibility should not be worse than randomly
  // dropped updates (usually strictly better).
  const auto gill_links = uc::observed_links(gill_sample).size();
  const auto random_links = uc::observed_links(random_sample).size();
  EXPECT_GE(gill_links + gill_links / 10, random_links);
}

}  // namespace
}  // namespace gill
