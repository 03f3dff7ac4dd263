#include "redundancy/component1.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "parallel/thread_pool.hpp"

namespace gill::red {

namespace {

/// Signature of one prefix's selected update set for step 3: the sequence
/// of (VP, path, communities, quantized time) of its nonredundant updates.
/// Two prefixes with equal signatures carry the same information.
std::uint64_t selection_signature(const std::vector<Update>& updates,
                                  const std::vector<VpId>& selected_vps,
                                  Timestamp window) {
  std::uint64_t h = 14695981039346656037ull;
  UpdateSignatureHash hasher;
  for (const Update& u : updates) {
    if (!std::binary_search(selected_vps.begin(), selected_vps.end(), u.vp)) {
      continue;
    }
    h ^= hasher(UpdateSignature::of(u));
    h *= 1099511628211ull;
    h ^= static_cast<std::uint64_t>(u.time / window);  // 100 s quantization
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Component1Result find_redundant_updates(const bgp::UpdateStream& training,
                                        const Component1Config& config,
                                        par::ThreadPool* pool) {
  Component1Result result;
  result.total_updates = training.size();

  // Partition by prefix, preserving time order.
  std::map<net::Prefix, std::vector<Update>> by_prefix;
  for (const Update& u : training) by_prefix[u.prefix].push_back(u);

  struct PrefixSelection {
    net::Prefix prefix;
    std::vector<VpId> all_vps;
    std::vector<VpId> selected;  // sorted
    std::size_t selected_updates = 0;
    std::uint64_t signature = 0;
    double final_rp = 0.0;
  };

  // Steps 1-2 are per-prefix independent — the embarrassingly parallel hot
  // stage. Every shard writes only its own index range of `selections`, and
  // the aggregation below walks prefixes in map order, so the result (down
  // to the floating-point mean) matches the serial loop exactly.
  std::vector<std::vector<Update>*> prefix_updates;
  std::vector<const net::Prefix*> prefix_keys;
  prefix_updates.reserve(by_prefix.size());
  prefix_keys.reserve(by_prefix.size());
  for (auto& [prefix, updates] : by_prefix) {
    prefix_keys.push_back(&prefix);
    prefix_updates.push_back(&updates);
  }
  std::vector<PrefixSelection> selections(by_prefix.size());
  const auto analyze = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::vector<Update>& updates = *prefix_updates[i];
      PrefixSelection& selection = selections[i];
      selection.prefix = *prefix_keys[i];
      {
        std::set<VpId> vps;
        for (const Update& u : updates) vps.insert(u.vp);
        selection.all_vps.assign(vps.begin(), vps.end());
      }
      PrefixReconstitution reconstitution(updates, config.correlation_window);
      auto greedy = reconstitution.greedy_select(config.rp_threshold);
      selection.final_rp = greedy.final_rp;
      selection.selected = std::move(greedy.selected_vps);
      std::sort(selection.selected.begin(), selection.selected.end());
      selection.selected_updates = greedy.selected_update_count;
      selection.signature = selection_signature(updates, selection.selected,
                                                config.correlation_window);
    }
  };
  if (pool != nullptr && selections.size() > 1) {
    pool->parallel_for(selections.size(), analyze);
  } else {
    analyze(0, selections.size());
  }

  double rp_sum = 0.0;
  for (const auto& selection : selections) rp_sum += selection.final_rp;
  result.mean_rp =
      selections.empty() ? 1.0 : rp_sum / static_cast<double>(selections.size());

  // Step 3: group prefixes by identical selected-set signatures; only the
  // first prefix of each group keeps its selection.
  std::unordered_map<std::uint64_t, std::size_t> representative;
  for (auto& selection : selections) {
    bool is_representative = true;
    if (config.cross_prefix && !selection.selected.empty()) {
      auto [it, inserted] =
          representative.try_emplace(selection.signature, 0);
      is_representative = inserted;
    }
    for (VpId vp : selection.all_vps) {
      const bool keep =
          is_representative &&
          std::binary_search(selection.selected.begin(),
                             selection.selected.end(), vp);
      if (keep) {
        result.nonredundant.insert(VpPrefix{vp, selection.prefix});
      } else {
        result.redundant.insert(VpPrefix{vp, selection.prefix});
      }
    }
    if (is_representative) {
      result.nonredundant_updates += selection.selected_updates;
    }
  }
  return result;
}

}  // namespace gill::red
