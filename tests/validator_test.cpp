#include <gtest/gtest.h>

#include "collector/validator.hpp"

namespace gill::collect {
namespace {

net::Prefix pfx(const char* text) { return net::Prefix::parse(text).value(); }

bgp::Update make(const char* prefix, std::initializer_list<bgp::AsNumber> path) {
  bgp::Update update;
  update.prefix = pfx(prefix);
  update.path = bgp::AsPath(path);
  return update;
}

TEST(Validator, MartianPrefixesRejected) {
  const RouteValidator validator;
  EXPECT_EQ(validator.validate(make("127.0.0.0/8", {65001})),
            RouteVerdict::kMartianPrefix);
  EXPECT_EQ(validator.validate(make("224.1.2.0/24", {65001})),
            RouteVerdict::kMartianPrefix);
  EXPECT_EQ(validator.validate(make("192.168.1.0/24", {65001})),
            RouteVerdict::kMartianPrefix);
  EXPECT_EQ(validator.validate(make("fe80::/10", {65001})),
            RouteVerdict::kMartianPrefix);
  EXPECT_EQ(validator.validate(make("203.0.113.0/24", {65001})),
            RouteVerdict::kOk);
  EXPECT_EQ(validator.validate(make("2001:db8::/32", {65001})),
            RouteVerdict::kOk);
}

TEST(Validator, PathLoopsRejectedButPrependingAllowed) {
  const RouteValidator validator;
  EXPECT_EQ(validator.validate(make("203.0.113.0/24", {1, 2, 1})),
            RouteVerdict::kPathLoop);
  bgp::Update prepended = make("203.0.113.0/24", {1, 2, 2, 2, 3});
  EXPECT_EQ(validator.validate(prepended), RouteVerdict::kOk);
}

TEST(Validator, OriginMismatchAfterStability) {
  RouteValidator validator;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(validator.validate_and_learn(
                  make("203.0.113.0/24", {65001, 64500})),
              RouteVerdict::kOk);
  }
  // The origin is stable now: a different origin is quarantined.
  EXPECT_EQ(validator.validate(make("203.0.113.0/24", {65002, 66666})),
            RouteVerdict::kOriginMismatch);
  // But the same origin via a different path is fine.
  EXPECT_EQ(validator.validate(make("203.0.113.0/24", {65001, 64999, 64500})),
            RouteVerdict::kOk);
}

TEST(Validator, OriginNotStableBeforeThreshold) {
  RouteValidator validator;
  validator.validate_and_learn(make("203.0.113.0/24", {65001, 64500}));
  // Only one observation: an origin change is not yet a violation.
  EXPECT_NE(validator.validate(make("203.0.113.0/24", {65002, 64501})),
            RouteVerdict::kOriginMismatch);
}

TEST(Validator, FabricatedPathsNeedMultipleUnknownLinks) {
  RouteValidator validator;
  // Learn a small world.
  validator.learn(make("203.0.113.0/24", {1, 2, 3}));
  validator.learn(make("198.51.100.0/24", {1, 4, 3}));
  EXPECT_EQ(validator.known_link_count(), 4u);

  // One or two new adjacencies = normal topology growth (a single new
  // transit AS inserted mid-path creates two).
  EXPECT_EQ(validator.validate(make("203.0.113.0/24", {1, 2, 5, 3})),
            RouteVerdict::kOk);
  EXPECT_EQ(validator.validate(make("203.0.113.0/24", {9, 8, 3})),
            RouteVerdict::kOk);
  // Three unknown adjacencies spliced into one path = fabricated.
  EXPECT_EQ(validator.validate(make("203.0.113.0/24", {9, 8, 7, 3})),
            RouteVerdict::kFabricatedPath);
}

TEST(Validator, EmptyStateAcceptsBootstrap) {
  RouteValidator validator;
  // With no learned links, new paths are not "fabricated" (bootstrap).
  EXPECT_EQ(validator.validate(make("203.0.113.0/24", {9, 8, 3})),
            RouteVerdict::kOk);
}

TEST(Validator, WithdrawalsAlwaysPass) {
  const RouteValidator validator;
  bgp::Update withdrawal;
  withdrawal.prefix = pfx("127.0.0.0/8");  // even for a martian
  withdrawal.withdrawal = true;
  EXPECT_EQ(validator.validate(withdrawal), RouteVerdict::kOk);
}

TEST(Validator, VerdictNames) {
  EXPECT_EQ(to_string(RouteVerdict::kOk), "ok");
  EXPECT_EQ(to_string(RouteVerdict::kFabricatedPath), "fabricated-path");
}

}  // namespace
}  // namespace gill::collect
