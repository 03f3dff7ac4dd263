// filter_refresh: the merge plane's periodic refresh, run in-process because
// the shipped collector refreshes every 16 days and no flag changes that.
// Each refresh does exactly what ShardedPlatform::run_merge_job does: sort
// the merged mirror, then run the GILL pipeline with an empty RIB, the
// default GillConfig, an auto-sized pool and the ScoreCache carried from
// the previous refresh.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "parallel/thread_pool.hpp"
#include "sampling/gill_pipeline.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace pb {

using namespace gill;

namespace {

constexpr bgp::Timestamp kTrainingWindowSecs = 6 * 3600;
constexpr std::size_t kWindows = 2;
/// Training windows are cut to their first this-many updates, so both
/// windows of a cycle analyse the same volume (a 6-hour window of this
/// world holds 40k-60k updates).
constexpr std::size_t kWindowUpdates = 36000;

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct StageResult {
  std::vector<bgp::VpId> anchors;
  filt::FilterTable filters;
};

/// run_gill_pipeline's stages called one by one, in its order, each inside
/// its own span.
StageResult run_stages(const bgp::UpdateStream& training,
                       const sample::PipelineRuntime& runtime,
                       Tracer* tracer) {
  const sample::GillConfig config;
  const bgp::UpdateStream rib;
  StageResult out;
  red::Component1Result component1;
  traced(tracer, "redundancy.component1", [&] {
    component1 = red::find_redundant_updates(training, config.component1,
                                             runtime.pool);
  });
  std::set<bgp::VpId> vp_set;
  for (const auto& update : training) vp_set.insert(update.vp);
  const std::vector<bgp::VpId> vps(vp_set.begin(), vp_set.end());
  std::vector<anchor::AnchorEvent> events;
  traced(tracer, "anchor.event_selection", [&] {
    const auto inferred =
        anchor::infer_events(rib, training, config.event_inference);
    const auto candidates = anchor::filter_non_global(
        inferred, vps.size(), config.event_selection.max_visibility);
    events = anchor::select_events(candidates, {}, config.event_selection);
  });
  if (!events.empty() && vps.size() >= 2) {
    std::vector<anchor::EventFeatureMatrix> matrices;
    traced(tracer, "features.extract", [&] {
      anchor::EventFeatureExtractor extractor(vps);
      matrices = extractor.extract(rib, training, events);
    });
    std::vector<std::vector<double>> scores;
    traced(tracer, "anchor.scores", [&] {
      scores = anchor::redundancy_scores(std::move(matrices), vps,
                                         runtime.pool, runtime.score_cache);
    });
    traced(tracer, "anchor.select_anchors", [&] {
      std::map<bgp::VpId, double> volume_by_vp;
      for (const auto& update : training) volume_by_vp[update.vp] += 1.0;
      std::vector<double> volumes;
      for (const bgp::VpId vp : vps) volumes.push_back(volume_by_vp[vp]);
      anchor::Component2Config component2 = config.component2;
      component2.max_anchors = std::min<std::size_t>(
          component2.max_anchors,
          std::max<std::size_t>(
              1, static_cast<std::size_t>(config.max_anchor_fraction *
                                          static_cast<double>(vps.size()))));
      out.anchors =
          anchor::select_anchors(scores, vps, volumes, component2).anchors;
    });
  }
  traced(tracer, "filters.generate", [&] {
    out.filters = filt::generate_filters(component1, out.anchors,
                                         config.granularity, &training);
  });
  return out;
}

}  // namespace

void replay_refresh_layers(const bgp::UpdateStream& training,
                           const bgp::UpdateStream& next, Tracer& tracer,
                           Result& result, ReplayTimes& times) {
  par::ThreadPool pool(par::auto_thread_count());
  const auto refresh = [&](Tracer* spans, anchor::ScoreCache& cache) {
    bgp::UpdateStream mirror = training;
    traced(spans, "collector.merge_sort", [&] { mirror.sort(); });
    sample::PipelineRuntime runtime;
    runtime.pool = &pool;
    runtime.score_cache = &cache;
    return run_stages(mirror, runtime, spans);
  };

  anchor::ScoreCache plain_cache;
  double start = now_s();
  refresh(nullptr, plain_cache);
  times.plain_s += now_s() - start;

  anchor::ScoreCache cache;
  const std::uint64_t shards_before = pool.shards_executed();
  start = now_s();
  const StageResult staged = refresh(&tracer, cache);
  times.traced_s += now_s() - start;
  result.set("parallel.shards_executed",
             static_cast<double>(pool.shards_executed() - shards_before),
             "count");

  // The stage-by-stage replica must produce what the pipeline produces.
  bgp::UpdateStream sorted = training;
  sorted.sort();
  anchor::ScoreCache reference_cache;
  sample::PipelineRuntime runtime;
  runtime.pool = &pool;
  runtime.score_cache = &reference_cache;
  const auto reference = sample::run_gill_pipeline(
      bgp::UpdateStream{}, sorted, {}, sample::GillConfig{}, runtime);
  if (reference.anchors != staged.anchors ||
      reference.filters.describe() != staged.filters.describe()) {
    result.problem("stage-by-stage refresh differs from run_gill_pipeline");
  }

  // The next window's refresh reuses the carried ScoreCache.
  const std::uint64_t hits = cache.hits;
  const std::uint64_t misses = cache.misses;
  bgp::UpdateStream next_sorted = next;
  next_sorted.sort();
  runtime.score_cache = &cache;
  sample::run_gill_pipeline(bgp::UpdateStream{}, next_sorted, {},
                            sample::GillConfig{}, runtime);
  const double reused = static_cast<double>(cache.hits - hits);
  const double lookups = reused + static_cast<double>(cache.misses - misses);
  result.set("anchor.score_cache_hit_ratio",
             lookups > 0 ? reused / lookups : 0, "ratio");

  // The refreshed table applied to the window that follows.
  std::size_t dropped = 0;
  start = now_s();
  for (const auto& update : next) {
    if (!staged.filters.accept(update)) ++dropped;
  }
  const double accept_s = now_s() - start;
  const double n = static_cast<double>(std::max<std::size_t>(1, next.size()));
  result.set("filters.accept_ns_per_update", accept_s * 1e9 / n, "ns");
  result.set("filters.drop_ratio", static_cast<double>(dropped) / n, "ratio");

  const auto totals = tracer.totals();
  const auto ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns / 1e6;
  };
  result.set("collector.merge_sort_ms", ms("collector.merge_sort"), "ms");
  result.set("redundancy.component1_ms", ms("redundancy.component1"), "ms");
  result.set("anchor.event_selection_ms", ms("anchor.event_selection"), "ms");
  result.set("features.extract_ms", ms("features.extract"), "ms");
  result.set("anchor.scores_ms", ms("anchor.scores"), "ms");
  result.set("anchor.select_anchors_ms", ms("anchor.select_anchors"), "ms");
  result.set("filters.generate_ms", ms("filters.generate"), "ms");
}

void run_refresh(const Options& options, Result& result) {
  const double input_start = now_s();
  World world = make_world();
  auto windows =
      make_windows(world, options.seed, kWindows, kTrainingWindowSecs);
  for (auto& window : windows) {
    auto& updates = window.updates();
    if (updates.size() > kWindowUpdates) updates.resize(kWindowUpdates);
  }
  const double input_s = now_s() - input_start;
  result.note("training windows: " + std::to_string(windows[0].size()) +
              " and " + std::to_string(windows[1].size()) + " updates");

  if (options.trace) {
    result.attempted = 1;  // the replayed refresh
    trace_layers(options, windows[0], StreamFormat::kJson, windows[0],
                 windows[1], "", {}, result);
    return;
  }

  par::ThreadPool pool(par::auto_thread_count());
  anchor::ScoreCache cache;
  {
    // Untimed warm-up: the first refresh in a process pays page faults and
    // allocator growth that a long-running collector does not.
    bgp::UpdateStream mirror = windows[0];
    mirror.sort();
    sample::PipelineRuntime runtime;
    runtime.pool = &pool;
    runtime.score_cache = &cache;
    sample::run_gill_pipeline(bgp::UpdateStream{}, mirror, {},
                              sample::GillConfig{}, runtime);
  }
  std::vector<std::string> reference(kWindows);
  // The run is split into passes like the serving workloads' launches; each
  // figure is the median over passes, so a burst of outside load during
  // one pass does not set it.
  struct Pass {
    std::vector<double> wall_s, per_update_rate, cpu_us;
  };
  std::vector<Pass> passes(kLaunches);
  std::vector<double> wall_s;
  std::vector<std::vector<double>> by_window(kWindows);
  const double pass_s = options.seconds / static_cast<double>(passes.size());
  for (Pass& pass : passes) {
   const double start = now_s();
   for (std::size_t i = 0; i == 0 || now_s() - start < pass_s ||
                           i % kWindows != 0;
        ++i) {
    const std::size_t w = i % kWindows;
    // Each cycle over the windows starts cold, so every cycle repeats the
    // same work: refresh 0 with an empty cache, later ones carry it.
    if (w == 0) cache = anchor::ScoreCache{};
    bgp::UpdateStream mirror = windows[w];
    const double cpu_start = process_cpu_s();
    const double refresh_start = now_s();
    mirror.sort();
    sample::PipelineRuntime runtime;
    runtime.pool = &pool;
    runtime.score_cache = &cache;
    const auto outcome = sample::run_gill_pipeline(
        bgp::UpdateStream{}, mirror, {}, sample::GillConfig{}, runtime);
    const double elapsed = now_s() - refresh_start;
    const double cpu = process_cpu_s() - cpu_start;
    ++result.attempted;
    std::ostringstream digest;
    digest << outcome.filters.describe() << '|';
    for (const auto vp : outcome.anchors) digest << vp << ',';
    if (reference[w].empty()) {
      reference[w] = digest.str();
    } else if (reference[w] != digest.str()) {
      ++result.failed;
      result.problem("refresh of window " + std::to_string(w) +
                     " is not deterministic");
    }
    const double n = static_cast<double>(mirror.size());
    wall_s.push_back(elapsed);
    by_window[w].push_back(elapsed);
    pass.wall_s.push_back(elapsed);
    pass.per_update_rate.push_back(n / elapsed);
    pass.cpu_us.push_back(cpu * 1e6 / n);
   }
  }
  std::vector<double> rate, p50, tails, cpu_us;
  for (const Pass& pass : passes) {
    rate.push_back(median(pass.per_update_rate));
    p50.push_back(quantile(pass.wall_s, 0.5) * 1000.0);
    // A pass holds a handful of refreshes, too few for a tail above the
    // median (see tail_level), so here the tail equals the median.
    tails.push_back(tail(pass.wall_s) * 1000.0);
    cpu_us.push_back(median(pass.cpu_us));
  }
  result.set("setup_s", input_s, "s");
  result.set("throughput_per_s", median(rate), "1/s");
  result.set("latency_p50_ms", median(p50), "ms");
  result.set("latency_tail_ms", median(tails), "ms");
  result.set("cpu_us_per_op", median(cpu_us), "us");
  result.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
  result.note("refresh_s = " + std::to_string(median(p50) / 1000.0) +
              " s (median over passes of the per-pass median), " +
              std::to_string(wall_s.size()) + " refreshes");
  for (std::size_t w = 0; w < by_window.size(); ++w) {
    result.note("window " + std::to_string(w) + ": median refresh " +
                std::to_string(median(by_window[w])) + " s");
  }
  result.note("score cache: " + std::to_string(cache.hits) + " hits, " +
              std::to_string(cache.misses) + " misses in the last pass");
}

}  // namespace pb
