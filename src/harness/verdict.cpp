#include "harness/verdict.hpp"

#include <algorithm>
#include <cstdio>

namespace gill::harness {

namespace {

bool up_or_peer(const topo::AsTopology& topology, bgp::AsNumber as,
                bgp::AsNumber neighbor) {
  const auto& providers = topology.providers(as);
  if (std::find(providers.begin(), providers.end(), neighbor) !=
      providers.end()) {
    return true;
  }
  const auto& peers = topology.peers(as);
  return std::find(peers.begin(), peers.end(), neighbor) != peers.end();
}

/// True when `path` crosses `leaker` through a valley: the leaker sits
/// between two of its own providers/peers, i.e. it re-exported a route it
/// learned from up/peer back up/sideways — exactly what valley-free export
/// forbids and what a route leak looks like from outside.
bool path_has_valley_at(const topo::AsTopology& topology,
                        const bgp::AsPath& path, bgp::AsNumber leaker) {
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    if (path[i] != leaker) continue;
    if (up_or_peer(topology, leaker, path[i + 1]) &&
        up_or_peer(topology, leaker, path[i - 1])) {
      return true;
    }
  }
  return false;
}

bool has_community(const bgp::CommunitySet& set, bgp::Community community) {
  return std::binary_search(set.begin(), set.end(), community);
}

void append_json_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

VerdictScorer::VerdictScorer(const Scenario& scenario)
    : scenario_(&scenario), states_(scenario.anomaly_truths.size()) {}

bool VerdictScorer::is_evidence(std::size_t index,
                                const bgp::Update& update) const {
  const sim::GroundTruth& truth = scenario_->anomaly_truths[index];
  if (update.withdrawal || update.path.empty()) return false;
  if (update.prefix != truth.prefix) return false;
  switch (truth.kind) {
    case sim::GroundTruth::Kind::kSubprefixHijack:
      // The more-specific exists at all only because of the hijack, and its
      // path must originate at the attacker (through the prepend tail).
      return update.path.origin() == truth.other_as;
    case sim::GroundTruth::Kind::kRouteLeak:
      return path_has_valley_at(*scenario_->topology, update.path,
                                truth.other_as);
    default:
      return false;
  }
}

void VerdictScorer::note_sent(const bgp::Update& update, double now_ms) {
  ++sent_;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].first_sent_ms >= 0) continue;
    if (is_evidence(i, update)) states_[i].first_sent_ms = now_ms;
  }
}

void VerdictScorer::observe_stream(const bgp::Update& update, double now_ms) {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (!is_evidence(i, update)) continue;
    TruthState& state = states_[i];
    if (!state.detected_stream) {
      state.detected_stream = true;
      state.first_stream_ms = now_ms;
    }
    if (has_community(update.communities, scenario_->tag)) {
      state.tagged = true;
    }
  }
}

void VerdictScorer::observe_archive(const bgp::Update& update) {
  ++archived_updates_;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (!is_evidence(i, update)) continue;
    TruthState& state = states_[i];
    state.detected_archive = true;
    ++state.evidence_records;
    if (has_community(update.communities, scenario_->tag)) {
      state.tagged = true;
    }
  }
}

ScenarioVerdict VerdictScorer::finish(double replay_ms,
                                      std::size_t link_lost) const {
  ScenarioVerdict verdict;
  verdict.scenario = scenario_->name;
  verdict.updates_sent = sent_;
  verdict.updates_delivered = archived_updates_;
  verdict.delivery_completeness =
      sent_ ? static_cast<double>(archived_updates_) /
                  static_cast<double>(sent_)
            : 0.0;
  verdict.replay_ms = replay_ms;
  verdict.events_per_sec =
      replay_ms > 0 ? 1000.0 * static_cast<double>(sent_) / replay_ms : 0.0;
  verdict.link_lost_updates = link_lost;
  verdict.passed = !states_.empty();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const sim::GroundTruth& truth = scenario_->anomaly_truths[i];
    const TruthState& state = states_[i];
    EventVerdict event;
    event.kind = std::string(to_string(scenario_->config.kind));
    event.prefix = truth.prefix.str();
    event.victim = truth.origin;
    event.actor = truth.other_as;
    event.detected_stream = state.detected_stream;
    event.detected_archive = state.detected_archive;
    event.tagged = state.tagged;
    if (state.detected_stream && state.first_sent_ms >= 0) {
      event.detection_latency_ms =
          state.first_stream_ms - state.first_sent_ms;
    }
    event.observers_expected = truth.observers.size();
    event.evidence_records = state.evidence_records;
    verdict.passed = verdict.passed && event.passed();
    verdict.events.push_back(std::move(event));
  }
  return verdict;
}

std::string ScenarioVerdict::to_json() const {
  char buffer[320];
  std::string out = "{\"scenario\":\"";
  append_json_escaped(out, scenario);
  std::snprintf(buffer, sizeof(buffer),
                "\",\"passed\":%s,\"updates_sent\":%zu,"
                "\"updates_delivered\":%zu,\"delivery_completeness\":%.4f,"
                "\"replay_ms\":%.1f,\"events_per_sec\":%.1f,"
                "\"link_lost_updates\":%zu,\"events\":[",
                passed ? "true" : "false", updates_sent, updates_delivered,
                delivery_completeness, replay_ms, events_per_sec,
                link_lost_updates);
  out += buffer;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EventVerdict& event = events[i];
    if (i) out.push_back(',');
    out += "{\"kind\":\"";
    append_json_escaped(out, event.kind);
    out += "\",\"prefix\":\"";
    append_json_escaped(out, event.prefix);
    std::snprintf(
        buffer, sizeof(buffer),
        "\",\"victim\":%u,\"actor\":%u,\"detected\":%s,"
        "\"detected_stream\":%s,\"detected_archive\":%s,\"tagged\":%s,"
        "\"detection_latency_ms\":%.1f,\"observers_expected\":%zu,"
        "\"evidence_records\":%zu}",
        event.victim, event.actor, event.passed() ? "true" : "false",
        event.detected_stream ? "true" : "false",
        event.detected_archive ? "true" : "false",
        event.tagged ? "true" : "false", event.detection_latency_ms,
        event.observers_expected, event.evidence_records);
    out += buffer;
  }
  out += "]}";
  return out;
}

}  // namespace gill::harness
