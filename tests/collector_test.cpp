#include <gtest/gtest.h>

#include <stdexcept>

#include "collector/platform.hpp"
#include "collector/vetting.hpp"

namespace gill::collect {
namespace {

net::Prefix pfx(const char* text) { return net::Prefix::parse(text).value(); }

// ---------------------------------------------------------------------------
// Peering vetting (§9).
// ---------------------------------------------------------------------------

TEST(Vetting, HappyPathTwoStepAuthentication) {
  AsOwnershipRegistry registry;
  registry.register_owner("example.net", 65010);
  PeeringVetting vetting(registry);

  const auto token = vetting.submit(
      PeeringRequest{65010, "noc@example.net", "192.0.2.1"});
  EXPECT_EQ(vetting.pending_count(), 1u);
  EXPECT_EQ(vetting.confirm(token, "noc@example.net"),
            VettingOutcome::kAccepted);
  ASSERT_EQ(vetting.accepted().size(), 1u);
  EXPECT_EQ(vetting.accepted()[0].as, 65010u);
  EXPECT_EQ(vetting.pending_count(), 0u);
}

TEST(Vetting, EmailMismatchKeepsRequestPending) {
  AsOwnershipRegistry registry;
  registry.register_owner("example.net", 65010);
  PeeringVetting vetting(registry);
  const auto token = vetting.submit(
      PeeringRequest{65010, "noc@example.net", "192.0.2.1"});
  EXPECT_EQ(vetting.confirm(token, "attacker@evil.example"),
            VettingOutcome::kEmailMismatch);
  EXPECT_EQ(vetting.pending_count(), 1u);  // a retry is still possible
  EXPECT_EQ(vetting.confirm(token, "noc@example.net"),
            VettingOutcome::kAccepted);
}

TEST(Vetting, NonOwnerRejectedViaRegistryCrossCheck) {
  AsOwnershipRegistry registry;
  registry.register_owner("example.net", 65010);
  PeeringVetting vetting(registry);
  // Correct email flow, but the domain does not operate that AS.
  const auto token = vetting.submit(
      PeeringRequest{65999, "noc@example.net", "192.0.2.1"});
  EXPECT_EQ(vetting.confirm(token, "noc@example.net"),
            VettingOutcome::kNotAsOwner);
  EXPECT_TRUE(vetting.accepted().empty());
}

TEST(Vetting, UnknownTokenRejected) {
  AsOwnershipRegistry registry;
  PeeringVetting vetting(registry);
  EXPECT_EQ(vetting.confirm(12345, "noc@example.net"),
            VettingOutcome::kUnknownRequest);
}

TEST(Vetting, DomainParsing) {
  EXPECT_EQ(PeeringVetting::domain_of("a@b.c"), "b.c");
  EXPECT_EQ(PeeringVetting::domain_of("nodomain"), "");
  EXPECT_EQ(PeeringVetting::domain_of("trailing@"), "");
}

// ---------------------------------------------------------------------------
// Platform orchestration (Fig. 9).
// ---------------------------------------------------------------------------

TEST(Platform, PeersEstablishAndUpdatesAreStored) {
  daemon::MrtStore archive;
  Platform platform;
  platform.set_archive(&archive);
  const auto vp0 = platform.add_peer(65010, 0);
  const auto vp1 = platform.add_peer(65011, 0);
  platform.step(1);  // handshakes complete
  EXPECT_EQ(platform.daemon_of(vp0).state(),
            daemon::SessionState::kEstablished);
  EXPECT_EQ(platform.daemon_of(vp1).state(),
            daemon::SessionState::kEstablished);

  bgp::Update update;
  update.prefix = pfx("10.0.0.0/24");
  update.path = bgp::AsPath{65010, 65020};
  platform.remote(vp0).send_update(update);
  platform.step(2);
  EXPECT_EQ(archive.stored(), 1u);
  EXPECT_EQ(platform.stored_updates(), 1u);
  EXPECT_EQ(platform.mirror().size(), 1u);
}

TEST(Platform, RefreshInstallsFiltersAndDropsMirror) {
  Platform platform;
  const auto vp0 = platform.add_peer(65010, 0);
  const auto vp1 = platform.add_peer(65011, 0);
  platform.step(1);

  // Two VPs repeatedly announce identical correlated updates for two
  // prefixes — classic redundancy.
  for (int round = 0; round < 6; ++round) {
    const auto t = static_cast<bgp::Timestamp>(2 + round * 1000);
    for (const char* prefix : {"10.0.0.0/24", "10.0.1.0/24"}) {
      bgp::Update update;
      update.prefix = pfx(prefix);
      update.path = round % 2 == 0 ? bgp::AsPath{65010, 65020}
                                   : bgp::AsPath{65010, 65021, 65020};
      platform.remote(vp0).send_update(update);
      platform.remote(vp1).send_update(update);
      platform.step(t);
    }
  }
  EXPECT_GT(platform.mirror().size(), 0u);
  platform.refresh_filters();
  EXPECT_TRUE(platform.mirror().empty());  // Fig. 9: mirror dropped
  EXPECT_GT(platform.filters().drop_rule_count(), 0u);

  const std::string filter_doc = platform.published_filter_document();
  EXPECT_NE(filter_doc.find("drop rules"), std::string::npos);
  const std::string anchor_doc = platform.published_anchor_document();
  EXPECT_NE(anchor_doc.find("anchor"), std::string::npos);
}

TEST(Platform, FiltersApplyToSubsequentTraffic) {
  daemon::MrtStore archive;
  Platform platform;
  platform.set_archive(&archive);
  const auto vp0 = platform.add_peer(65010, 0);
  const auto vp1 = platform.add_peer(65011, 0);
  platform.step(1);

  auto send_round = [&](bgp::Timestamp t, const bgp::AsPath& path) {
    bgp::Update update;
    update.prefix = pfx("10.0.0.0/24");
    update.path = path;
    platform.remote(vp0).send_update(update);
    platform.remote(vp1).send_update(update);
    platform.step(t);
  };
  for (int round = 0; round < 6; ++round) {
    send_round(2 + round * 1000, round % 2 == 0
                                     ? bgp::AsPath{65010, 65020}
                                     : bgp::AsPath{65010, 65021, 65020});
  }
  const std::size_t stored_before = archive.stored();
  platform.refresh_filters();

  // After the refresh, redundant (vp, prefix) traffic is filtered out for
  // the non-anchor VP.
  send_round(20000, bgp::AsPath{65010, 65020});
  const std::size_t stored_after = archive.stored();
  const std::size_t newly_stored = stored_after - stored_before;
  EXPECT_LT(newly_stored, 2u);  // at most the anchor's copy got stored
}

// A session writes RIB snapshots only while it is up: an accepted peer that
// goes away never returns on its VP, so its last table must not be written
// into the archive every period for good.
TEST(Platform, ClosedSessionWritesNoRibSnapshot) {
  daemon::MrtStore archive;
  Platform platform;
  platform.set_archive(&archive);
  auto transport = std::make_unique<daemon::Transport>();
  daemon::Transport& wire = *transport;
  const auto vp = platform.add_remote_peer(65010, 0, std::move(transport));
  daemon::FakePeer router(65010, wire);
  platform.daemon_mut(vp).enable_rib_dumps(10);
  router.poll();
  platform.step(1);
  router.poll();
  ASSERT_TRUE(router.established());

  bgp::Update update;
  update.prefix = pfx("10.0.0.0/24");
  update.path = bgp::AsPath{65010, 65020};
  router.send_update(update);
  platform.step(2);
  const auto snapshots = [&] {
    std::size_t records = 0;
    mrt::Reader reader(archive.writer().buffer());
    while (const auto record = reader.next()) {
      if (record->type == mrt::RecordType::kTableDumpV2) ++records;
    }
    return records;
  };
  platform.step(10);
  ASSERT_EQ(snapshots(), 1u) << "an Established session snapshots";

  wire.disconnect();  // the router goes away; no retry on an accepted peer
  platform.step(11);
  ASSERT_EQ(platform.daemon_of(vp).state(), daemon::SessionState::kIdle);
  ASSERT_EQ(platform.daemon_of(vp).rib().size(), 1u);
  for (bgp::Timestamp t = 20; t <= 70; t += 10) platform.step(t);
  EXPECT_EQ(snapshots(), 1u);
  EXPECT_EQ(platform.daemon_of(vp).rib_dumps_written(), 1u);
}

// Session labels never reach the BMP range: a session holding a feed's
// label would have its bytes decoded as BMP, and the collector would report
// it as a feed. Taking every session label costs nothing here; opening
// 100,000 sessions would cost about a gigabyte.
TEST(VpLabels, SessionsNeverReachTheBmpRange) {
  VpLabels labels;
  EXPECT_EQ(labels.take_bmp(), Platform::kFirstBmpVp);
  VpId last = 0;
  while (labels.next_session() < Platform::kFirstBmpVp) {
    last = labels.take_session();
  }
  EXPECT_EQ(last, Platform::kFirstBmpVp - 1);
  EXPECT_THROW(labels.take_session(), std::length_error);
  EXPECT_EQ(labels.next_session(), Platform::kFirstBmpVp);
  EXPECT_EQ(labels.take_bmp(), Platform::kFirstBmpVp + 1);
}

// ---------------------------------------------------------------------------
// Growth model (Fig. 2 / Fig. 3).
// ---------------------------------------------------------------------------

TEST(GrowthModel, CalibratedEndpoints) {
  EXPECT_NEAR(GrowthModel::internet_ases(2023), 74000.0, 1000.0);
  EXPECT_NEAR(GrowthModel::vp_hosting_ases(2023), 950.0, 50.0);
  // Fig. 2 bottom: coverage stays flat in the ~1-2% band over two decades.
  for (double year = 2003; year <= 2023; year += 1.0) {
    const double coverage = GrowthModel::coverage(year);
    EXPECT_GT(coverage, 0.008) << year;
    EXPECT_LT(coverage, 0.02) << year;
  }
  EXPECT_NEAR(GrowthModel::updates_per_vp_hour(2023), 28000.0, 2000.0);
}

TEST(GrowthModel, TotalUpdatesGrowSuperlinearly) {
  // The compound effect (§3.2): total hourly updates grow faster than the
  // per-VP rate.
  const double per_vp_growth = GrowthModel::updates_per_vp_hour(2023) /
                               GrowthModel::updates_per_vp_hour(2008);
  const double total_growth = GrowthModel::total_updates_per_hour(2023) /
                              GrowthModel::total_updates_per_hour(2008);
  EXPECT_GT(total_growth, per_vp_growth * 1.5);
  // Billions per day in 2023 across all VPs (Fig. 3b: ~10^8 per hour).
  EXPECT_GT(GrowthModel::total_updates_per_hour(2023) * 24.0, 1e9);
}

}  // namespace
}  // namespace gill::collect
