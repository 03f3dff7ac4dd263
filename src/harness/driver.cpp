#include "harness/driver.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "collector/platform.hpp"
#include "harness/http_client.hpp"
#include "mrt/mrt.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"

namespace gill::harness {

namespace {

/// Incremental MRT consumer over a growing byte buffer: decodes whole
/// records as they arrive, leaves a torn tail for the next drain.
struct IncrementalMrt {
  std::size_t offset = 0;

  template <typename Fn>
  void drain(const std::vector<std::uint8_t>& payload, Fn&& fn) {
    while (offset < payload.size()) {
      mrt::Reader reader({payload.data() + offset, payload.size() - offset});
      const auto record = reader.next();
      if (!record) break;  // torn tail — more bytes needed
      offset += reader.offset();
      fn(*record);
    }
  }
};

LinkModelConfig per_vp_link(const ScenarioConfig& config, std::size_t vp) {
  LinkModelConfig link = config.link;
  link.seed = config.seed ^ (0x9e3779b97f4a7c15ull * (vp + 1));
  link.faults.seed = link.seed ^ 0xf0f0f0f0ull;
  return link;
}

void score_archive_body(const std::string& body, VerdictScorer& scorer) {
  mrt::Reader reader(
      {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()});
  while (const auto record = reader.next()) {
    if (record->type == mrt::RecordType::kBgp4mp) {
      scorer.observe_archive(record->update);
    }
  }
}

std::size_t count_records(const std::string& body) {
  std::size_t n = 0;
  mrt::Reader reader(
      {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()});
  while (reader.next()) ++n;
  return n;
}

}  // namespace

ScenarioVerdict ScenarioDriver::run_tcp() {
  if (config_.bgp_port == 0 || config_.http_port == 0) {
    throw std::runtime_error("run_tcp: bgp_port/http_port not set");
  }
  net::EventLoop loop;
  metrics::Registry registry;
  VerdictScorer scorer(*scenario_);
  const std::vector<bgp::AsNumber>& hosts = scenario_->internet->vp_hosts();

  struct VpSession {
    std::unique_ptr<ShapedTransport> shaped;
    std::unique_ptr<net::TcpTransport> tcp;
    std::unique_ptr<daemon::FakePeer> peer;
  };
  std::vector<VpSession> sessions;
  for (std::size_t vp = 0; vp < hosts.size(); ++vp) {
    VpSession session;
    session.shaped =
        std::make_unique<ShapedTransport>(per_vp_link(scenario_->config, vp));
    session.tcp = std::make_unique<net::TcpTransport>(
        loop, net::Role::kPeerSide, &registry);
    session.tcp->set_overlay(*session.shaped);
    if (!session.tcp->dial(config_.host, config_.bgp_port)) {
      throw std::runtime_error("run_tcp: cannot dial the collector");
    }
    session.peer =
        std::make_unique<daemon::FakePeer>(hosts[vp], *session.shaped);
    sessions.push_back(std::move(session));
  }

  const auto started = std::chrono::steady_clock::now();
  auto wall_ms = [&]() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - started)
        .count();
  };
  auto check_deadline = [&](const char* stage) {
    if (wall_ms() > config_.timeout_ms) {
      throw std::runtime_error(std::string("run_tcp: timeout during ") +
                               stage);
    }
  };

  StreamClient stream;
  IncrementalMrt stream_mrt;
  auto pump = [&]() {
    loop.run_once(1);
    const double now = wall_ms();
    for (VpSession& session : sessions) {
      session.shaped->advance(now);
      session.tcp->sync();
      session.peer->poll();
      session.tcp->sync();
    }
    if (stream.connected()) {
      stream.pump();
      stream_mrt.drain(stream.payload(), [&](const mrt::Reader::Record& r) {
        if (r.type == mrt::RecordType::kBgp4mp) {
          scorer.observe_stream(r.update, wall_ms());
        }
      });
    }
  };

  // Establish every session (the collector's daemon opens; FakePeer answers).
  for (;;) {
    pump();
    bool all = true;
    for (VpSession& session : sessions) {
      all = all && session.peer->established();
    }
    if (all) break;
    check_deadline("session establishment");
  }

  // Live detection feed, subscribed before any route is announced.
  if (!stream.connect(config_.host, config_.http_port,
                      "/v1/stream?format=mrt")) {
    throw std::runtime_error("run_tcp: cannot subscribe to /v1/stream");
  }

  // Initial table, then the paced replay.
  const double first_send_ms = wall_ms();
  std::size_t batch = 0;
  for (const bgp::Update& update : scenario_->rib) {
    scorer.note_sent(update, wall_ms());
    sessions[update.vp].peer->send_update(update);
    if (++batch % 64 == 0) pump();
  }
  for (VpSession& session : sessions) session.peer->send_end_of_rib();
  pump();

  LongMemoryScheduler scheduler(scenario_->config.pacing);
  const std::vector<double> offsets =
      scheduler.pace(scenario_->events.size(), config_.replay_ms);
  const double replay_start = wall_ms();
  const auto& events = scenario_->events.updates();
  for (std::size_t i = 0; i < events.size(); ++i) {
    while (wall_ms() < replay_start + offsets[i]) {
      pump();
      check_deadline("event replay");
    }
    scorer.note_sent(events[i], wall_ms());
    sessions[events[i].vp].peer->send_update(events[i]);
  }
  const double last_send_ms = wall_ms();

  // Drain: let shaped queues release, the collector ingest and seal, the
  // stream deliver.
  const double settle_until = last_send_ms + config_.settle_ms;
  while (wall_ms() < settle_until) {
    pump();
    check_deadline("settle");
  }

  // Delivery completeness: pull /v1/data until the sealed record count
  // stops growing (the active segment seals on the collector's rotation
  // boundary — run it with --rotate-secs 1).
  std::string archive_body;
  std::size_t last_count = 0;
  for (;;) {
    const auto result =
        http_get(config_.host, config_.http_port, "/v1/data");
    if (result && result->status == 200) {
      const std::size_t count = count_records(result->body);
      if (count == last_count && count > 0) {
        archive_body = result->body;
        break;
      }
      last_count = count;
      archive_body = result->body;
    }
    const double wait_until = wall_ms() + 400;
    while (wall_ms() < wait_until) pump();
    check_deadline("/v1/data pull");
  }
  score_archive_body(archive_body, scorer);

  std::size_t lost = 0;
  for (VpSession& session : sessions) {
    lost += session.shaped->shaping_stats().lost_updates;
  }
  ScenarioVerdict verdict =
      scorer.finish(last_send_ms - first_send_ms, lost);
  stream.close();
  return verdict;
}

ScenarioVerdict ScenarioDriver::run_in_memory() {
  // The run's archive: every record the sessions keep, in store order.
  daemon::MrtStore archive;
  collect::Platform platform;
  platform.set_archive(&archive);
  VerdictScorer scorer(*scenario_);

  double logical_ms = 0.0;
  platform.set_stream_publisher([&](const bgp::Update& update) {
    scorer.observe_stream(update, logical_ms);
  });

  const std::vector<bgp::AsNumber>& hosts = scenario_->internet->vp_hosts();
  const bgp::Timestamp start = scenario_->config.start;
  auto now_s = [&]() {
    return start + static_cast<bgp::Timestamp>(logical_ms / 1000.0);
  };

  std::vector<ShapedTransport*> shaped;
  std::vector<std::unique_ptr<daemon::FakePeer>> peers;
  for (std::size_t vp = 0; vp < hosts.size(); ++vp) {
    auto transport =
        std::make_unique<ShapedTransport>(per_vp_link(scenario_->config, vp));
    ShapedTransport* raw = transport.get();
    platform.add_remote_peer(hosts[vp], now_s(), std::move(transport));
    shaped.push_back(raw);
    peers.push_back(std::make_unique<daemon::FakePeer>(hosts[vp], *raw));
  }

  auto pump = [&](double advance_ms) {
    logical_ms += advance_ms;
    for (std::size_t vp = 0; vp < shaped.size(); ++vp) {
      shaped[vp]->advance(logical_ms);
      peers[vp]->poll();
    }
    platform.step(now_s());
  };

  // Handshake on the logical clock.
  for (int i = 0; i < 10000; ++i) {
    bool all = true;
    for (auto& peer : peers) all = all && peer->established();
    if (all) break;
    pump(25.0);
  }
  for (auto& peer : peers) {
    if (!peer->established()) {
      throw std::runtime_error("run_in_memory: sessions never established");
    }
  }

  const double first_send_ms = logical_ms;
  std::size_t batch = 0;
  for (const bgp::Update& update : scenario_->rib) {
    scorer.note_sent(update, logical_ms);
    peers[update.vp]->send_update(update);
    if (++batch % 64 == 0) pump(5.0);
  }
  for (auto& peer : peers) peer->send_end_of_rib();
  pump(25.0);

  LongMemoryScheduler scheduler(scenario_->config.pacing);
  const std::vector<double> offsets =
      scheduler.pace(scenario_->events.size(), config_.replay_ms);
  const double replay_start = logical_ms;
  const auto& events = scenario_->events.updates();
  for (std::size_t i = 0; i < events.size(); ++i) {
    while (logical_ms < replay_start + offsets[i]) pump(5.0);
    scorer.note_sent(events[i], logical_ms);
    peers[events[i].vp]->send_update(events[i]);
  }
  const double last_send_ms = logical_ms;

  // Drain every shaped queue (plus the sessions' decode backlog).
  for (int i = 0; i < 10000; ++i) {
    bool idle = true;
    for (ShapedTransport* transport : shaped) {
      idle = idle && transport->shaping_idle();
    }
    if (idle && i >= 4) break;
    pump(25.0);
  }

  archived_bytes_ = archive.writer().buffer();
  mrt::Reader reader(
      {archived_bytes_.data(), archived_bytes_.size()});
  while (const auto record = reader.next()) {
    if (record->type == mrt::RecordType::kBgp4mp) {
      scorer.observe_archive(record->update);
    }
  }

  std::size_t lost = 0;
  for (ShapedTransport* transport : shaped) {
    lost += transport->shaping_stats().lost_updates;
  }
  return scorer.finish(last_send_ms - first_send_ms, lost);
}

}  // namespace gill::harness
