// The parallel analysis engine (DESIGN.md §9): ThreadPool semantics, the
// byte-determinism guarantee of the parallel pipeline stages at 1/2/8
// threads against the null-pool serial path, and the cross-refresh score
// cache. The asynchronous filter refresh itself is the merge plane's and is
// tested in sharded_test.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "anchor/scoring.hpp"
#include "parallel/thread_pool.hpp"
#include "redundancy/component1.hpp"
#include "sampling/gill_pipeline.hpp"
#include "simulator/workload.hpp"
#include "topology/generator.hpp"

namespace gill {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit semantics.
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  par::ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> touched(kN);
  pool.parallel_for(kN, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      touched[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
  EXPECT_GT(pool.shards_executed(), 1u);
}

TEST(ThreadPool, SubmitReturnsTheJobsValue) {
  par::ThreadPool pool(2);
  auto future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, NestedParallelForInsideSubmitDoesNotDeadlock) {
  // A refresh job occupies the (only) worker and then fans out its stages
  // with parallel_for: the caller participates, so this must complete even
  // on a 1-thread pool.
  par::ThreadPool pool(1);
  auto future = pool.submit([&pool] {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(1000, [&sum](std::size_t begin, std::size_t end) {
      sum.fetch_add(end - begin, std::memory_order_relaxed);
    });
    return sum.load();
  });
  EXPECT_EQ(future.get(), 1000u);
}

TEST(ThreadPool, DestructorRunsEveryQueuedJob) {
  std::atomic<int> ran{0};
  {
    par::ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // drain-and-join
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, AutoThreadCountIsClamped) {
  EXPECT_GE(par::auto_thread_count(), 1u);
  EXPECT_LE(par::auto_thread_count(4), 4u);
  EXPECT_EQ(par::auto_thread_count(0), 1u);
}

// ---------------------------------------------------------------------------
// Determinism: the parallel stages produce byte-identical results at any
// thread count (the ISSUE's 1/2/8 guarantee). The simulator provides a
// realistic mid-size stream.
// ---------------------------------------------------------------------------

struct PipelineWorld {
  topo::AsTopology topology;
  sim::InternetConfig config;
  std::unique_ptr<sim::Internet> internet;
  bgp::UpdateStream ribs;
  bgp::UpdateStream training;

  explicit PipelineWorld(std::uint64_t seed = 7)
      : topology(topo::generate_artificial({.as_count = 120, .seed = seed})) {
    for (bgp::AsNumber as = 0; as < 120; as += 5) {
      config.vp_hosts.push_back(as);
    }
    config.rng_seed = seed + 1;
    config.path_exploration_probability = 0.3;
    internet = std::make_unique<sim::Internet>(topology, config);
    ribs = internet->rib_dump(0);
    sim::WorkloadConfig workload;
    workload.seed = seed + 2;
    training = sim::generate_workload(*internet, 8, workload);
  }
};

const PipelineWorld& pipeline_world() {
  static PipelineWorld world;
  return world;
}

void expect_identical(const sample::GillPipelineResult& serial,
                      const sample::GillPipelineResult& parallel,
                      const char* what) {
  EXPECT_EQ(serial.component1.redundant, parallel.component1.redundant)
      << what;
  EXPECT_EQ(serial.component1.nonredundant, parallel.component1.nonredundant)
      << what;
  EXPECT_EQ(serial.component1.total_updates, parallel.component1.total_updates)
      << what;
  EXPECT_EQ(serial.component1.nonredundant_updates,
            parallel.component1.nonredundant_updates)
      << what;
  // Byte determinism, not approximation: the parallel stages preserve the
  // serial floating-point accumulation order.
  EXPECT_EQ(serial.component1.mean_rp, parallel.component1.mean_rp) << what;
  EXPECT_EQ(serial.anchors, parallel.anchors) << what;
  EXPECT_EQ(serial.scored_vps, parallel.scored_vps) << what;
  ASSERT_EQ(serial.scores.size(), parallel.scores.size()) << what;
  for (std::size_t n = 0; n < serial.scores.size(); ++n) {
    ASSERT_EQ(serial.scores[n], parallel.scores[n]) << what << " row " << n;
  }
  EXPECT_EQ(serial.filters.describe(), parallel.filters.describe()) << what;
}

TEST(Determinism, PipelineIsByteIdenticalAtOneTwoAndEightThreads) {
  const PipelineWorld& world = pipeline_world();
  const sample::GillConfig config;
  const auto serial = sample::run_gill_pipeline(world.ribs, world.training,
                                                {}, config);
  ASSERT_GT(serial.component1.total_updates, 0u);
  ASSERT_FALSE(serial.anchors.empty());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(threads);
    sample::PipelineRuntime runtime;
    runtime.pool = &pool;
    const auto parallel = sample::run_gill_pipeline(world.ribs,
                                                    world.training, {},
                                                    config, runtime);
    expect_identical(serial, parallel,
                     threads == 1 ? "1 thread"
                                  : (threads == 2 ? "2 threads" : "8 threads"));
    EXPECT_GT(pool.shards_executed(), 0u) << "the pool actually ran shards";
  }
}

TEST(Determinism, Component1MatchesSerialAtEveryThreadCount) {
  const PipelineWorld& world = pipeline_world();
  const auto serial = red::find_redundant_updates(world.training);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(threads);
    const auto parallel =
        red::find_redundant_updates(world.training, {}, &pool);
    EXPECT_EQ(serial.redundant, parallel.redundant);
    EXPECT_EQ(serial.nonredundant, parallel.nonredundant);
    EXPECT_EQ(serial.mean_rp, parallel.mean_rp);
  }
}

// ---------------------------------------------------------------------------
// Score cache: a pair whose feature epochs did not change is served from
// the cache, bit-identically.
// ---------------------------------------------------------------------------

std::vector<anchor::EventFeatureMatrix> synthetic_matrices(std::size_t vps,
                                                           std::size_t events) {
  std::vector<anchor::EventFeatureMatrix> matrices(events);
  std::uint64_t state = 0x243F6A8885A308D3ull;
  for (auto& matrix : matrices) {
    matrix.rows.resize(vps);
    for (auto& row : matrix.rows) {
      for (auto& cell : row) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        cell = static_cast<double>(state >> 40) / 1024.0;
      }
    }
  }
  return matrices;
}

TEST(ScoreCache, SecondIdenticalRefreshHitsEveryPair) {
  const std::vector<bgp::VpId> vps = {3, 7, 11, 19};
  const auto matrices = synthetic_matrices(vps.size(), 5);
  anchor::ScoreCache cache;
  const auto first =
      anchor::redundancy_scores(matrices, vps, nullptr, &cache);
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 6u);  // C(4,2) pairs all rescored
  const auto second =
      anchor::redundancy_scores(matrices, vps, nullptr, &cache);
  EXPECT_EQ(cache.hits, 6u) << "unchanged features: every pair cached";
  EXPECT_EQ(cache.misses, 6u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t n = 0; n < first.size(); ++n) {
    EXPECT_EQ(first[n], second[n]) << "cache hits are bit-identical";
  }
}

TEST(ScoreCache, ChangedFeaturesInvalidateOnlyTouchedPairs) {
  const std::vector<bgp::VpId> vps = {1, 2, 3, 4};
  auto matrices = synthetic_matrices(vps.size(), 4);
  anchor::ScoreCache cache;
  (void)anchor::redundancy_scores(matrices, vps, nullptr, &cache);
  ASSERT_EQ(cache.misses, 6u);
  // Swap VP 0's and VP 1's value in one feature column. The column's
  // mean/stddev are unchanged, so VP 2's and VP 3's z-scored rows stay
  // bit-identical and their pair keeps its cache entry, while every pair
  // touching VP 0 or VP 1 rescores. (An additive perturbation would shift
  // the column statistics and legitimately invalidate everyone.)
  for (auto& matrix : matrices) {
    ASSERT_NE(matrix.rows[0][0], matrix.rows[1][0]);
    std::swap(matrix.rows[0][0], matrix.rows[1][0]);
  }
  (void)anchor::redundancy_scores(matrices, vps, nullptr, &cache);
  EXPECT_EQ(cache.hits, 1u) << "the untouched (2,3) pair stays cached";
  EXPECT_EQ(cache.misses, 11u);
}

TEST(ScoreCache, PoolAndSerialAgreeWithCaching) {
  const std::vector<bgp::VpId> vps = {2, 4, 6, 8, 10, 12};
  const auto matrices = synthetic_matrices(vps.size(), 6);
  anchor::ScoreCache serial_cache;
  anchor::ScoreCache pool_cache;
  const auto serial =
      anchor::redundancy_scores(matrices, vps, nullptr, &serial_cache);
  par::ThreadPool pool(4);
  const auto parallel =
      anchor::redundancy_scores(matrices, vps, &pool, &pool_cache);
  for (std::size_t n = 0; n < serial.size(); ++n) {
    EXPECT_EQ(serial[n], parallel[n]);
  }
  EXPECT_EQ(serial_cache.misses, pool_cache.misses);
}

}  // namespace
}  // namespace gill
