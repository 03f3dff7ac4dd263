// The four workloads and the in-process layer replay of the traced runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/update.hpp"
#include "inputs.hpp"
#include "util.hpp"

namespace pb {

/// Collector launches per serving run (passes per filter_refresh run): each
/// figure is the median over them, set-up is measured on each, and the
/// shard and control ticks, whose relative phase is fixed at launch, are
/// sampled that many times.
constexpr std::size_t kLaunches = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string collector;  // gill-collectord binary
  std::string workdir;    // private scratch directory of this run
  std::string trace_dir;  // where the traced run writes its spans
};

void run_ingest(const Options& options, bool paced, Result& result);
void run_archive(const Options& options, Result& result);
void run_refresh(const Options& options, Result& result);

/// Wall time of a replay without spans and of the same replay with them.
struct ReplayTimes {
  double plain_s = 0;
  double traced_s = 0;
};

/// The traced run's in-process pass over every layer, on one core, fed
/// with the workload's own inputs: `updates` through the ingest-path entry
/// points and into a preloaded archive queried with the workload's mix
/// (or `archive_dir` + `queries` when the workload has its own), and
/// `training` / `next` through the refresh stages. Fills the per-layer
/// metrics and writes the spans.
void trace_layers(const Options& options, const gill::bgp::UpdateStream& updates,
                  StreamFormat format, const gill::bgp::UpdateStream& training,
                  const gill::bgp::UpdateStream& next,
                  const std::string& archive_dir,
                  const std::vector<Query>& queries, Result& result);

/// The refresh part of trace_layers: the pipeline's stages one by one on
/// `training`, checked against run_gill_pipeline, then the carried cache and
/// the refreshed filter table on `next`.
void replay_refresh_layers(const gill::bgp::UpdateStream& training,
                           const gill::bgp::UpdateStream& next, Tracer& tracer,
                           Result& result, ReplayTimes& times);

}  // namespace pb
