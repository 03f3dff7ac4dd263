// End-to-end platform demo (Fig. 9 + §9): the full GILL collector.
//
//  1. operators submit the peering form and confirm by email (two-step
//     vetting against the PeeringDB-like registry),
//  2. the platform spins up one BGP daemon per vetted peer (RFC 4271
//     handshake over the in-memory transport),
//  3. peers stream updates; everything is mirrored for the sampling run,
//  4. the orchestrator refreshes filters (Components #1 + #2) and installs
//     them into the daemons,
//  5. subsequent redundant traffic is discarded before the MRT archive (an
//     in-memory daemon::MrtStore this program attaches as the platform's
//     archive sink), and the two public documents (filters, anchors) are
//     published,
//  6. the run's metrics are dumped as a Prometheus exposition — the same
//     text gill_collectord serves live on GET /metrics.
#include <cstdio>

#include "cli_util.hpp"
#include "collector/platform.hpp"
#include "collector/vetting.hpp"

int main() {
  using namespace gill;
  using collect::PeeringRequest;

  // --- 1. peering vetting ---------------------------------------------------
  collect::AsOwnershipRegistry registry;  // the PeeringDB stand-in
  registry.register_owner("alpha.example", 65010);
  registry.register_owner("beta.example", 65011);
  collect::PeeringVetting vetting(registry);

  const auto token_a =
      vetting.submit(PeeringRequest{65010, "noc@alpha.example", "192.0.2.1"});
  const auto token_b =
      vetting.submit(PeeringRequest{65011, "noc@beta.example", "192.0.2.2"});
  const auto token_evil =
      vetting.submit(PeeringRequest{65010, "noc@evil.example", "192.0.2.9"});

  std::printf("vetting alpha: %s\n",
              std::string(to_string(
                  vetting.confirm(token_a, "noc@alpha.example")))
                  .c_str());
  std::printf("vetting beta:  %s\n",
              std::string(to_string(
                  vetting.confirm(token_b, "noc@beta.example")))
                  .c_str());
  std::printf("vetting evil:  %s (not the AS owner)\n",
              std::string(to_string(
                  vetting.confirm(token_evil, "noc@evil.example")))
                  .c_str());

  // --- 2. sessions ------------------------------------------------------------
  collect::PlatformConfig platform_config;
  platform_config.gill.use_anchors = true;
  // Register everything in the process-wide registry so the final metrics
  // dump sees the platform and session counters.
  platform_config.registry = &metrics::default_registry();
  // The archive sink every session writes what it keeps into; this program
  // owns it and reads it back (gill-collectord passes its segment store).
  daemon::MrtStore archive;
  collect::Platform platform(platform_config);
  platform.set_archive(&archive);
  std::vector<bgp::VpId> vps;
  for (const auto& accepted : vetting.accepted()) {
    vps.push_back(platform.add_peer(accepted.as, 0));
  }
  platform.step(1);
  for (const bgp::VpId vp : vps) {
    std::printf("VP%u session: %s (peer AS %u)\n", vp,
                std::string(daemon::to_string(platform.daemon_of(vp).state()))
                    .c_str(),
                platform.daemon_of(vp).peer_as());
  }

  // --- 3. traffic ------------------------------------------------------------
  auto announce = [&](bgp::VpId vp, const char* prefix,
                      std::initializer_list<bgp::AsNumber> path,
                      bgp::Timestamp t) {
    bgp::Update update;
    update.prefix = net::Prefix::parse(prefix).value();
    update.path = bgp::AsPath(path);
    platform.remote(vp).send_update(update);
    platform.step(t);
  };
  // Six rounds of correlated churn on two prefixes, seen by both VPs.
  for (int round = 0; round < 6; ++round) {
    const auto t = static_cast<bgp::Timestamp>(10 + round * 600);
    for (const char* prefix : {"203.0.113.0/24", "198.51.100.0/24"}) {
      const bool odd = round % 2;
      announce(vps[0], prefix,
               odd ? std::initializer_list<bgp::AsNumber>{65010, 64500}
                   : std::initializer_list<bgp::AsNumber>{65010, 64501, 64500},
               t);
      announce(vps[1], prefix,
               odd ? std::initializer_list<bgp::AsNumber>{65011, 64500}
                   : std::initializer_list<bgp::AsNumber>{65011, 64501, 64500},
               t);
    }
  }
  std::printf("\nafter 6 rounds: %zu updates stored, %zu mirrored for "
              "sampling\n",
              archive.stored(), platform.mirror().size());

  // --- 4. refresh ------------------------------------------------------------
  platform.refresh_filters();
  std::printf("\nrefreshed filters:\n%s",
              platform.published_filter_document().c_str());
  std::printf("%s", platform.published_anchor_document().c_str());

  // --- 5. post-refresh traffic -------------------------------------------------
  const std::size_t before = archive.stored();
  announce(vps[0], "203.0.113.0/24", {65010, 64500}, 9000);
  announce(vps[1], "203.0.113.0/24", {65011, 64500}, 9000);
  std::printf("\npost-refresh round: %zu new updates stored (redundant "
              "copies discarded at the session)\n",
              archive.stored() - before);

  // The archive is real MRT: persist and reload it.
  const char* path = "/tmp/gill_quickstart_archive.mrt";
  archive.save(path);
  const auto reloaded = mrt::read_stream(path);
  std::printf("MRT archive round-trip: %zu records re-read from %s\n",
              reloaded ? reloaded->size() : 0, path);
  std::remove(path);

  // --- 6. observability -------------------------------------------------------
  std::printf("\nend-of-run metrics (what GET /metrics would have served):\n");
  cli::dump_metrics("-");
  return 0;
}
