// Closed-loop scoring (DESIGN.md §13): the scorer watches what the real
// collector streamed (/v1/stream) and archived (/v1/data) and decides, per
// ground-truth anomaly, whether the platform's stored data contains
// unambiguous evidence of it — plus detection latency (first send of
// evidence to first appearance on the live stream) and delivery
// completeness (archived update records vs. updates the harness sent).
//
// Evidence predicates are structural, not tag-based: a sub-prefix hijack is
// proven by a stored announcement of the hijacked more-specific whose path
// originates at the attacker; a route leak by a stored path that crosses
// the leaker through a valley (the leaker between two of its own
// providers/peers — valley-free export forbids exactly that). The
// scenario's community tag is tracked separately as corroboration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace gill::harness {

struct EventVerdict {
  std::string kind;
  std::string prefix;
  bgp::AsNumber victim = 0;
  bgp::AsNumber actor = 0;
  bool detected_stream = false;   // evidence appeared on /v1/stream
  bool detected_archive = false;  // evidence present in the stored data
  bool tagged = false;            // evidence carried the scenario community
  double detection_latency_ms = -1.0;  // first send -> first stream sighting
  std::size_t observers_expected = 0;  // VPs ground truth says saw it
  std::size_t evidence_records = 0;    // matching archived records

  bool passed() const noexcept { return detected_archive || detected_stream; }
};

struct ScenarioVerdict {
  std::string scenario;
  bool passed = false;
  std::size_t updates_sent = 0;       // handed to the peers by the driver
  std::size_t updates_delivered = 0;  // BGP4MP update records stored
  double delivery_completeness = 0.0;
  double replay_ms = 0.0;
  double events_per_sec = 0.0;       // updates_sent over the replay window
  std::size_t link_lost_updates = 0;  // shaped away by the link model
  std::vector<EventVerdict> events;

  std::string to_json() const;
};

/// Accumulates observations for one scenario run and produces the verdict.
class VerdictScorer {
 public:
  explicit VerdictScorer(const Scenario& scenario);

  /// True when `update` is structural evidence of anomaly truth `index`.
  bool is_evidence(std::size_t index, const bgp::Update& update) const;

  /// The driver reports each update it hands to a peer, with harness time.
  void note_sent(const bgp::Update& update, double now_ms);
  /// A record decoded off the live stream.
  void observe_stream(const bgp::Update& update, double now_ms);
  /// A BGP4MP update record from the stored data (/v1/data or the store).
  void observe_archive(const bgp::Update& update);

  std::size_t updates_sent() const noexcept { return sent_; }

  /// Final verdict. `replay_ms` is the wall/logical span of the replay;
  /// `link_lost` the ShapedTransport loss count across all VPs.
  ScenarioVerdict finish(double replay_ms, std::size_t link_lost) const;

 private:
  const Scenario* scenario_;
  struct TruthState {
    double first_sent_ms = -1.0;
    double first_stream_ms = -1.0;
    bool detected_stream = false;
    bool detected_archive = false;
    bool tagged = false;
    std::size_t evidence_records = 0;
  };
  std::vector<TruthState> states_;
  std::size_t sent_ = 0;
  std::size_t archived_updates_ = 0;
};

}  // namespace gill::harness
