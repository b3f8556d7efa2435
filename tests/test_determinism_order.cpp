// Regression tests for the mhrp-lint determinism rules (DESIGN.md §12):
// every observable emission that walks an unordered container must come
// out in sorted key order, byte-identical regardless of insertion order.
// Each test builds the same logical state through two different insertion
// sequences and pins the exact output bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/cache_inspector.hpp"
#include "core/location_cache.hpp"
#include "dv_rig.hpp"
#include "routing/routing_table.hpp"

namespace mhrp {
namespace {

using analysis::CacheInspector;
using core::LocationCache;
using routing::Route;
using routing::RouteKind;
using routing::RoutingTable;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

Route route(const char* prefix, const char* via, int metric) {
  return {net::Prefix::parse(prefix), ip(via), nullptr, metric,
          RouteKind::kStatic};
}

// The same six routes, installed in two unrelated orders. The /16 bucket
// holds four entries, enough that libstdc++'s unordered_map would emit
// them in hash order without the sorted-bucket fix.
std::vector<Route> kRoutesA() {
  return {route("10.3.0.0/16", "9.0.0.3", 3), route("10.1.0.0/16", "9.0.0.1", 1),
          route("10.0.0.0/8", "9.0.0.9", 9), route("10.2.0.0/16", "9.0.0.2", 2),
          route("10.0.0.0/16", "9.0.0.0", 4), route("11.0.0.0/8", "9.0.0.8", 8)};
}

std::vector<Route> kRoutesB() {
  auto r = kRoutesA();
  return {r[5], r[2], r[4], r[0], r[3], r[1]};
}

const char kExpectedTable[] =
    "10.0.0.0/16 via 9.0.0.0 metric 4\n"
    "10.1.0.0/16 via 9.0.0.1 metric 1\n"
    "10.2.0.0/16 via 9.0.0.2 metric 2\n"
    "10.3.0.0/16 via 9.0.0.3 metric 3\n"
    "10.0.0.0/8 via 9.0.0.9 metric 9\n"
    "11.0.0.0/8 via 9.0.0.8 metric 8\n";

TEST(DeterministicOrder, RoutingTableToStringIsInsertOrderInvariant) {
  RoutingTable a;
  for (const auto& r : kRoutesA()) a.install(r);
  RoutingTable b;
  for (const auto& r : kRoutesB()) b.install(r);

  EXPECT_EQ(a.to_string(), kExpectedTable);
  EXPECT_EQ(b.to_string(), kExpectedTable);
}

TEST(DeterministicOrder, RoutingTableRoutesIsInsertOrderInvariant) {
  RoutingTable a;
  for (const auto& r : kRoutesA()) a.install(r);
  RoutingTable b;
  for (const auto& r : kRoutesB()) b.install(r);

  const auto ra = a.routes();
  const auto rb = b.routes();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].prefix, rb[i].prefix) << "position " << i;
    EXPECT_EQ(ra[i].next_hop, rb[i].next_hop) << "position " << i;
  }
  // routes() feeds DV advertisements: within a prefix length the
  // addresses must come out ascending.
  EXPECT_EQ(ra[0].prefix, net::Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(ra[1].prefix, net::Prefix::parse("11.0.0.0/8"));
  EXPECT_EQ(ra[2].prefix, net::Prefix::parse("10.0.0.0/16"));
  EXPECT_EQ(ra[3].prefix, net::Prefix::parse("10.1.0.0/16"));
  EXPECT_EQ(ra[4].prefix, net::Prefix::parse("10.2.0.0/16"));
  EXPECT_EQ(ra[5].prefix, net::Prefix::parse("10.3.0.0/16"));
}

// Fill a cache through `order`, then cross-link two entries so the audit
// has two mismatches to report; the detail string must not depend on the
// map's iteration order.
std::string crossed_audit_detail(const std::vector<int>& order) {
  LocationCache cache(16);
  for (int i : order) {
    cache.update(net::IpAddress::of(10, 0, 0, static_cast<std::uint8_t>(i)),
                 net::IpAddress::of(192, 168, 0, 1));
  }
  CacheInspector::corrupt_with_crossed_links_for_test(
      cache, net::IpAddress::of(10, 0, 0, 2), net::IpAddress::of(10, 0, 0, 6));
  const auto findings = CacheInspector::check(cache);
  EXPECT_FALSE(findings.coherent);
  return findings.detail;
}

TEST(DeterministicOrder, CacheAuditDetailIsInsertOrderInvariant) {
  const std::string a = crossed_audit_detail({1, 2, 3, 4, 5, 6, 7, 8});
  const std::string b = crossed_audit_detail({8, 6, 4, 2, 7, 5, 3, 1});

  const char expected[] =
      "map slot for 10.0.0.2 points at LRU node for 10.0.0.6; "
      "map slot for 10.0.0.6 points at LRU node for 10.0.0.2; ";
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);
}

// Two routers learn the same routes from neighbors whose datagrams list
// them in opposite orders (and arrive in opposite neighbor order); every
// advertisement either router then sends must be the same bytes, with
// the learned section in ascending prefix order.
TEST(DeterministicOrder, DvAdvertisementIsInsertOrderInvariant) {
  using dvtest::DvEntry;
  using dvtest::DvRig;
  using dvtest::pfx;
  const std::vector<DvEntry> from_west = {{pfx("10.9.0.0/16"), 1},
                                          {pfx("10.9.3.7/32"), 2},
                                          {pfx("10.20.0.0/24"), 3},
                                          {pfx("11.0.0.0/8"), 1}};
  const std::vector<DvEntry> from_east = {{pfx("10.0.0.0/8"), 5},
                                          {pfx("10.9.0.0/24"), 2},
                                          {pfx("10.9.3.0/24"), 1},
                                          {pfx("12.1.0.0/16"), 4}};
  auto reversed = [](std::vector<DvEntry> entries) {
    std::reverse(entries.begin(), entries.end());
    return entries;
  };

  DvRig a;
  a.feed(DvRig::kWest, from_west);
  a.feed(DvRig::kEast, from_east);
  DvRig b;
  b.feed(DvRig::kEast, reversed(from_east));
  b.feed(DvRig::kWest, reversed(from_west));

  for (auto side : {DvRig::kWest, DvRig::kEast, DvRig::kNorth}) {
    const auto body_a = a.advertisement_bytes(side);
    ASSERT_FALSE(body_a.empty()) << "side " << side;
    EXPECT_EQ(body_a, b.advertisement_bytes(side)) << "side " << side;
  }
  std::vector<DvEntry> expected = dvtest::connected_section();
  expected.insert(expected.end(), {{pfx("10.0.0.0/8"), 6},
                                   {pfx("10.9.0.0/16"), 2},
                                   {pfx("10.9.0.0/24"), 3},
                                   {pfx("10.9.3.0/24"), 2},
                                   {pfx("10.9.3.7/32"), 3},
                                   {pfx("10.20.0.0/24"), 4},
                                   {pfx("11.0.0.0/8"), 2},
                                   {pfx("12.1.0.0/16"), 5}});
  EXPECT_EQ(a.advertisement(DvRig::kNorth), expected);
}

}  // namespace
}  // namespace mhrp
