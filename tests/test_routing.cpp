// Unit tests: longest-prefix-match table and shortest paths; plus the
// distance-vector service with §3 host-specific routes, and its route
// table driven by hand-built update datagrams (tests/dv_rig.hpp).
#include <gtest/gtest.h>

#include "dv_rig.hpp"

#include "routing/dijkstra.hpp"
#include "routing/dv/dv_process.hpp"
#include "routing/routing_table.hpp"
#include "scenario/topology.hpp"

namespace mhrp {
namespace {

using routing::Route;
using routing::RouteKind;
using routing::RoutingTable;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable t;
  t.install({net::Prefix::parse("10.0.0.0/8"), ip("1.1.1.1"), nullptr, 1,
             RouteKind::kStatic});
  t.install({net::Prefix::parse("10.2.0.0/16"), ip("2.2.2.2"), nullptr, 1,
             RouteKind::kStatic});
  t.install({net::Prefix::host(ip("10.2.0.77")), ip("3.3.3.3"), nullptr, 1,
             RouteKind::kHostSpecific});

  EXPECT_EQ(t.lookup(ip("10.9.0.1"))->next_hop, ip("1.1.1.1"));
  EXPECT_EQ(t.lookup(ip("10.2.1.1"))->next_hop, ip("2.2.2.2"));
  EXPECT_EQ(t.lookup(ip("10.2.0.77"))->next_hop, ip("3.3.3.3"));
  EXPECT_EQ(t.lookup(ip("11.0.0.1")), nullptr);
}

TEST(RoutingTable, DefaultRouteCatchesEverything) {
  RoutingTable t;
  t.install({net::Prefix(net::kUnspecified, 0), ip("9.9.9.9"), nullptr, 1,
             RouteKind::kStatic});
  EXPECT_EQ(t.lookup(ip("200.1.2.3"))->next_hop, ip("9.9.9.9"));
}

TEST(RoutingTable, ConnectedRoutesResistReplacement) {
  RoutingTable t;
  t.install({net::Prefix::parse("10.1.0.0/24"), net::kUnspecified, nullptr, 0,
             RouteKind::kConnected});
  t.install({net::Prefix::parse("10.1.0.0/24"), ip("5.5.5.5"), nullptr, 3,
             RouteKind::kDynamic});
  EXPECT_TRUE(t.lookup(ip("10.1.0.7"))->next_hop.is_unspecified());
  EXPECT_EQ(t.size(), 1u);
}

TEST(RoutingTable, RemoveKindSweepsOnlyThatKind) {
  RoutingTable t;
  t.install({net::Prefix::parse("10.1.0.0/24"), ip("1.1.1.1"), nullptr, 1,
             RouteKind::kStatic});
  t.install({net::Prefix::parse("10.2.0.0/24"), ip("1.1.1.1"), nullptr, 1,
             RouteKind::kDynamic});
  t.install({net::Prefix::parse("10.3.0.0/24"), ip("1.1.1.1"), nullptr, 1,
             RouteKind::kDynamic});
  t.remove_kind(RouteKind::kDynamic);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NE(t.lookup(ip("10.1.0.1")), nullptr);
  EXPECT_EQ(t.lookup(ip("10.2.0.1")), nullptr);
}

TEST(RoutingTable, RemoveRouteWithdrawsOneTierAndExposesFallback) {
  // The DV plane's withdrawal contract: removing the dynamic route for a
  // prefix re-exposes the static route underneath it (the fallback tier),
  // and removing the last tier empties the prefix out of the table.
  RoutingTable t;
  const auto prefix = net::Prefix::parse("10.7.0.0/24");
  t.install({prefix, ip("1.1.1.1"), nullptr, 1, RouteKind::kStatic});
  t.install({prefix, ip("2.2.2.2"), nullptr, 3, RouteKind::kDynamic});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(ip("10.7.0.9"))->next_hop, ip("2.2.2.2"));

  EXPECT_TRUE(t.remove_route(prefix, RouteKind::kDynamic));
  EXPECT_EQ(t.lookup(ip("10.7.0.9"))->next_hop, ip("1.1.1.1"));
  EXPECT_FALSE(t.remove_route(prefix, RouteKind::kDynamic));  // already gone

  EXPECT_TRUE(t.remove_route(prefix, RouteKind::kStatic));
  EXPECT_EQ(t.lookup(ip("10.7.0.9")), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(RoutingTable, UpdateMetricRewritesInPlace) {
  RoutingTable t;
  const auto prefix = net::Prefix::parse("10.8.0.0/24");
  t.install({prefix, ip("2.2.2.2"), nullptr, 3, RouteKind::kDynamic});
  EXPECT_TRUE(t.update_metric(prefix, RouteKind::kDynamic, 7));
  EXPECT_EQ(t.find(prefix)->metric, 7);
  EXPECT_EQ(t.find(prefix)->next_hop, ip("2.2.2.2"));
  // Absent prefix or absent tier: no-op, reported as such.
  EXPECT_FALSE(t.update_metric(prefix, RouteKind::kStatic, 1));
  EXPECT_FALSE(t.update_metric(net::Prefix::parse("10.9.0.0/24"),
                               RouteKind::kDynamic, 1));
}

TEST(RoutingTable, FindKindSeesShadowedTiers) {
  RoutingTable t;
  const auto prefix = net::Prefix::parse("10.1.0.0/24");
  t.install({prefix, net::kUnspecified, nullptr, 0, RouteKind::kConnected});
  t.install({prefix, ip("5.5.5.5"), nullptr, 3, RouteKind::kDynamic});
  // The forwarding view shows the connected route; the shadowed dynamic
  // tier is still inspectable (the DV process reads its own entries back
  // this way without disturbing forwarding).
  EXPECT_TRUE(t.lookup(ip("10.1.0.7"))->next_hop.is_unspecified());
  const Route* shadowed = t.find_kind(prefix, RouteKind::kDynamic);
  ASSERT_NE(shadowed, nullptr);
  EXPECT_EQ(shadowed->next_hop, ip("5.5.5.5"));
  EXPECT_EQ(t.find_kind(prefix, RouteKind::kStatic), nullptr);
}

TEST(Dijkstra, FindsShortestPathsAndFirstHops) {
  // 0 - 1 - 2
  //  \     /
  //   - 3 -
  routing::Graph g(4);
  auto edge = [&](int a, int b, double c) {
    g[std::size_t(a)].push_back({b, c});
    g[std::size_t(b)].push_back({a, c});
  };
  edge(0, 1, 1);
  edge(1, 2, 1);
  edge(0, 3, 1);
  edge(3, 2, 1);
  auto sp = routing::shortest_paths(g, 0);
  EXPECT_EQ(sp.distance[2], 2.0);
  EXPECT_EQ(sp.distance[1], 1.0);
  auto path = routing::path_to(sp, 0, 2);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 2);
}

TEST(Dijkstra, UnreachableVerticesReported) {
  routing::Graph g(3);
  g[0].push_back({1, 1.0});
  auto sp = routing::shortest_paths(g, 0);
  EXPECT_FALSE(sp.reachable(2));
  EXPECT_TRUE(routing::path_to(sp, 0, 2).empty());
}

TEST(Dijkstra, RespectsEdgeWeights) {
  routing::Graph g(3);
  g[0].push_back({1, 10.0});
  g[0].push_back({2, 1.0});
  g[2].push_back({1, 1.0});
  auto sp = routing::shortest_paths(g, 0);
  EXPECT_EQ(sp.distance[1], 2.0);
  EXPECT_EQ(sp.first_hop[1], 2);
}

TEST(Dijkstra, EqualCostTieBreakIsInsertionOrderInvariant) {
  // A 2x3 grid where every inner vertex is reachable over several
  // equal-cost paths. The tie-break (lower predecessor id wins) must pin
  // the exact same next hops whether the adjacency lists are built
  // forwards or backwards — install_static_routes feeds first_hop
  // straight into next-hop addresses, so any drift here would change
  // forwarding bytes between two identically-seeded worlds.
  //
  //   0 - 1 - 2
  //   |   |   |
  //   3 - 4 - 5
  const std::vector<std::pair<int, int>> edges = {
      {0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4}, {2, 5}};
  routing::Graph forward(6);
  for (auto [a, b] : edges) {
    forward[std::size_t(a)].push_back({b, 1.0});
    forward[std::size_t(b)].push_back({a, 1.0});
  }
  routing::Graph backward(6);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    backward[std::size_t(it->second)].push_back({it->first, 1.0});
    backward[std::size_t(it->first)].push_back({it->second, 1.0});
  }

  auto render = [](const routing::ShortestPaths& sp) {
    std::string out;
    for (std::size_t v = 0; v < sp.first_hop.size(); ++v) {
      out += std::to_string(v) + ":" + std::to_string(sp.first_hop[v]) + " ";
    }
    return out;
  };
  const auto sp_f = routing::shortest_paths(forward, 0);
  const auto sp_b = routing::shortest_paths(backward, 0);
  // Vertex 4 (via 1, not 3) and vertex 5 (via 1, not 3) pin the
  // tie-break itself; the byte equality pins insertion-order invariance.
  EXPECT_EQ(render(sp_f), "0:-1 1:1 2:1 3:3 4:1 5:1 ");
  EXPECT_EQ(render(sp_f), render(sp_b));
}

// ---- Distance vector ----

struct DvWorld {
  scenario::Topology topo;
  node::Router* r1;
  node::Router* r2;
  node::Router* r3;
  std::unique_ptr<routing::dv::DvProcess> dv1, dv2, dv3;

  DvWorld() {
    // r1 -(lanA)- r2 -(lanB)- r3, with stub LANs on r1 and r3.
    auto& lan_a = topo.add_link("lanA", sim::millis(1));
    auto& lan_b = topo.add_link("lanB", sim::millis(1));
    auto& stub1 = topo.add_link("stub1", sim::millis(1));
    auto& stub3 = topo.add_link("stub3", sim::millis(1));
    r1 = &topo.add_router("r1");
    r2 = &topo.add_router("r2");
    r3 = &topo.add_router("r3");
    topo.connect(*r1, lan_a, ip("10.0.1.1"), 24);
    topo.connect(*r2, lan_a, ip("10.0.1.2"), 24);
    topo.connect(*r2, lan_b, ip("10.0.2.1"), 24);
    topo.connect(*r3, lan_b, ip("10.0.2.2"), 24);
    topo.connect(*r1, stub1, ip("10.1.0.1"), 24);
    topo.connect(*r3, stub3, ip("10.3.0.1"), 24);
    routing::dv::DvOptions config;
    config.update_period = sim::seconds(1);
    dv1 = std::make_unique<routing::dv::DvProcess>(*r1, config, 1);
    dv2 = std::make_unique<routing::dv::DvProcess>(*r2, config, 2);
    dv3 = std::make_unique<routing::dv::DvProcess>(*r3, config, 3);
  }
};

TEST(DistanceVector, ConvergesAcrossTwoHops) {
  DvWorld w;
  w.dv1->start();
  w.dv2->start();
  w.dv3->start();
  w.topo.sim().run_for(sim::seconds(10));
  // r1 should know r3's stub via r2.
  const auto* route = w.r1->routing_table().lookup(ip("10.3.0.5"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, ip("10.0.1.2"));
  EXPECT_EQ(route->kind, routing::RouteKind::kDynamic);
  EXPECT_EQ(route->metric, 2);
}

TEST(DistanceVector, HostSpecificRoutePropagatesAndWithdraws) {
  // Paper §3: a home agent advertises a /32 for a disconnected mobile
  // host, withdrawn when the host returns.
  DvWorld w;
  w.dv1->start();
  w.dv2->start();
  w.dv3->start();
  w.topo.sim().run_for(sim::seconds(10));

  const auto mh = ip("10.1.0.77");
  w.dv1->advertise_host_route(mh, true);
  w.topo.sim().run_for(sim::seconds(10));
  const auto* at_r3 = w.r3->routing_table().find(net::Prefix::host(mh));
  ASSERT_NE(at_r3, nullptr);
  EXPECT_EQ(at_r3->kind, routing::RouteKind::kHostSpecific);

  w.dv1->advertise_host_route(mh, false);
  w.topo.sim().run_for(sim::seconds(40));
  EXPECT_EQ(w.r3->routing_table().find(net::Prefix::host(mh)), nullptr);
}

TEST(DistanceVector, RoutesExpireWhenNeighborGoesSilent) {
  DvWorld w;
  w.dv1->start();
  w.dv2->start();
  w.dv3->start();
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_NE(w.r1->routing_table().lookup(ip("10.3.0.5")), nullptr);

  w.dv3->stop();
  w.dv2->stop();  // r2 stops refreshing what it learned from r3
  // r1 keeps hearing nothing; after route_timeout its sweep timer
  // poisons the entry and withdraws it from the forwarding table, and
  // after gc_delay more the entry is deleted outright.
  w.topo.sim().run_for(sim::seconds(120));
  const auto* route = w.r1->routing_table().lookup(ip("10.3.0.5"));
  EXPECT_EQ(route, nullptr);
  EXPECT_GE(w.dv1->stats().routes_expired, 1u);
}

// ---- DvProcess route table, one operation at a time ----

using dvtest::DvEntry;
using dvtest::DvRig;
using dvtest::pfx;

/// `expected` after the connected-subnet section.
std::vector<DvEntry> with_connected(std::vector<DvEntry> expected) {
  std::vector<DvEntry> out = dvtest::connected_section();
  out.insert(out.end(), expected.begin(), expected.end());
  return out;
}

TEST(DvTable, LearnsRouteAndIgnoresPoisonForUnknownPrefix) {
  DvRig rig;
  rig.feed(DvRig::kWest, {{pfx("10.9.2.0/24"), 1}, {pfx("10.9.1.0/24"), 16}});
  const routing::Route* route = rig.installed(pfx("10.9.2.0/24"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, rig.ip_of(DvRig::kWest));
  EXPECT_EQ(route->metric, 2);
  EXPECT_EQ(route->kind, RouteKind::kDynamic);
  EXPECT_EQ(rig.installed(pfx("10.9.1.0/24")), nullptr);
  EXPECT_EQ(rig.dv->reachable_routes(), 1u);
  EXPECT_EQ(rig.dv->stats().route_changes, 1u);
  EXPECT_EQ(rig.dv->stats().poisons_received, 0u);
  EXPECT_EQ(rig.advertisement(DvRig::kNorth),
            with_connected({{pfx("10.9.2.0/24"), 2}}));
  // Split horizon with poisoned reverse toward the route's own LAN.
  EXPECT_EQ(rig.advertisement(DvRig::kWest),
            with_connected({{pfx("10.9.2.0/24"), 16}}));
}

TEST(DvTable, BetterMetricFromAnotherNeighborReplacesRoute) {
  DvRig rig;
  const auto p = pfx("10.9.5.0/24");
  rig.feed(DvRig::kWest, {{p, 3}});
  rig.feed(DvRig::kEast, {{p, 4}});  // worse elsewhere: ignored
  EXPECT_EQ(rig.installed(p)->next_hop, rig.ip_of(DvRig::kWest));
  EXPECT_EQ(rig.installed(p)->metric, 4);
  rig.feed(DvRig::kEast, {{p, 1}});
  const routing::Route* route = rig.installed(p);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->next_hop, rig.ip_of(DvRig::kEast));
  EXPECT_EQ(route->iface, rig.neighbors[DvRig::kEast].router_iface);
  EXPECT_EQ(route->metric, 2);
  EXPECT_EQ(rig.dv->stats().route_changes, 2u);
  // Poisoned reverse now points east, not west.
  EXPECT_EQ(rig.advertisement(DvRig::kWest), with_connected({{p, 2}}));
  EXPECT_EQ(rig.advertisement(DvRig::kEast), with_connected({{p, 16}}));
}

TEST(DvTable, MetricRiseFromNextHopIsFollowedAndSuspected) {
  DvRig rig;
  const auto p = pfx("10.9.7.0/24");
  std::vector<std::pair<net::Prefix, int>> suspected;
  rig.dv->on_counting_to_infinity = [&](const net::Prefix& prefix, int m) {
    suspected.emplace_back(prefix, m);
  };
  rig.feed(DvRig::kWest, {{p, 1}});
  rig.feed(DvRig::kWest, {{p, 2}});
  rig.feed(DvRig::kWest, {{p, 3}});
  EXPECT_EQ(rig.dv->stats().counting_to_infinity, 0u);
  rig.feed(DvRig::kWest, {{p, 4}});  // third consecutive rise
  EXPECT_EQ(rig.installed(p)->metric, 5);
  EXPECT_EQ(rig.dv->stats().counting_to_infinity, 1u);
  ASSERT_EQ(suspected.size(), 1u);
  EXPECT_EQ(suspected[0], std::make_pair(p, 5));
  // A fall resets the streak: three more rises are needed.
  rig.feed(DvRig::kWest, {{p, 2}});
  rig.feed(DvRig::kWest, {{p, 3}});
  rig.feed(DvRig::kWest, {{p, 4}});
  EXPECT_EQ(rig.dv->stats().counting_to_infinity, 1u);
  EXPECT_EQ(rig.installed(p)->metric, 5);
}

TEST(DvTable, PoisonFromNextHopWithdrawsRoute) {
  DvRig rig;
  const auto p = pfx("10.9.3.0/24");
  const auto q = pfx("10.9.4.0/24");
  rig.feed(DvRig::kWest, {{p, 1}, {q, 1}});
  rig.feed(DvRig::kEast, {{p, 16}});  // not the next hop: ignored
  ASSERT_NE(rig.installed(p), nullptr);
  rig.feed(DvRig::kWest, {{p, 16}});
  EXPECT_EQ(rig.installed(p), nullptr);
  EXPECT_NE(rig.installed(q), nullptr);
  EXPECT_EQ(rig.dv->reachable_routes(), 1u);
  EXPECT_EQ(rig.dv->stats().poisons_received, 1u);
  EXPECT_EQ(rig.dv->stats().routes_withdrawn, 1u);
  // The poison is passed on everywhere until garbage collection.
  EXPECT_EQ(rig.advertisement(DvRig::kNorth),
            with_connected({{p, 16}, {q, 2}}));
  // A fresh path revives the poisoned entry.
  rig.feed(DvRig::kEast, {{p, 2}});
  EXPECT_EQ(rig.installed(p)->metric, 3);
  EXPECT_EQ(rig.dv->reachable_routes(), 2u);
}

TEST(DvTable, SweepCollectsSeveralEntriesInOnePass) {
  DvRig rig;
  const auto a = pfx("10.9.1.0/24");
  const auto b = pfx("10.9.2.0/24");
  const auto c = pfx("10.9.3.0/24");
  const auto d = pfx("10.9.4.0/24");
  const auto e = pfx("10.9.5.0/24");
  rig.feed(DvRig::kWest, {{e, 1}, {d, 1}, {c, 1}, {b, 1}, {a, 1}});
  // Keep a, c and e fresh; b and d go silent at t ~ 0.
  auto refresh = [&] { rig.feed(DvRig::kWest, {{a, 1}, {c, 1}, {e, 1}}); };
  for (int i = 0; i < 3; ++i) {
    rig.run(sim::millis(995));
    refresh();
  }
  // Timed out at 3 s: b and d are poisoned, still advertised.
  EXPECT_EQ(rig.dv->stats().routes_expired, 2u);
  EXPECT_EQ(rig.advertisement(DvRig::kNorth),
            with_connected({{a, 2}, {b, 16}, {c, 2}, {d, 16}, {e, 2}}));
  for (int i = 0; i < 2; ++i) {
    rig.run(sim::millis(995));
    refresh();
  }
  // Both share one GC deadline (5 s): one sweep deletes both and keeps
  // the survivors in order.
  EXPECT_EQ(rig.advertisement(DvRig::kNorth),
            with_connected({{a, 2}, {c, 2}, {e, 2}}));
  EXPECT_EQ(rig.dv->reachable_routes(), 3u);
  // The compacted table still takes inserts in the middle.
  rig.feed(DvRig::kEast, {{d, 1}, {b, 1}});
  EXPECT_EQ(rig.advertisement(DvRig::kNorth),
            with_connected({{a, 2}, {b, 2}, {c, 2}, {d, 2}, {e, 2}}));
}

TEST(DvTable, LinkDownPoisonsOnlyRoutesLearnedThroughIt) {
  DvRig rig;
  const auto a = pfx("10.9.1.0/24");
  const auto b = pfx("10.9.2.0/24");
  const auto c = pfx("10.9.3.0/24");
  const auto d = pfx("10.9.4.0/24");
  const auto e = pfx("10.9.5.0/24");
  rig.feed(DvRig::kEast, {{a, 1}, {c, 1}, {e, 1}});
  rig.feed(DvRig::kWest, {{b, 1}, {d, 1}});
  rig.neighbors[DvRig::kWest].link->fail();
  EXPECT_EQ(rig.installed(b), nullptr);
  EXPECT_EQ(rig.installed(d), nullptr);
  EXPECT_NE(rig.installed(a), nullptr);
  EXPECT_NE(rig.installed(e), nullptr);
  EXPECT_EQ(rig.dv->reachable_routes(), 3u);
  EXPECT_EQ(rig.dv->stats().routes_withdrawn, 2u);
  EXPECT_EQ(rig.advertisement(DvRig::kNorth),
            std::vector<DvEntry>({{pfx("10.0.1.0/24"), 16},
                                  {pfx("10.0.2.0/24"), 0},
                                  {pfx("10.0.3.0/24"), 0},
                                  {a, 2},
                                  {b, 16},
                                  {c, 2},
                                  {d, 16},
                                  {e, 2}}));
  // The poisoned entries are collected gc_delay after the fault.
  rig.run(sim::millis(2100));
  EXPECT_EQ(rig.advertisement(DvRig::kNorth).size(), 6u);
}

TEST(DvTable, RebootClearsLearnedRoutes) {
  DvRig rig;
  rig.feed(DvRig::kWest, {{pfx("10.9.1.0/24"), 1}, {pfx("10.9.2.0/24"), 3}});
  rig.feed(DvRig::kWest, {{pfx("10.9.2.0/24"), 16}});
  rig.dv->advertise_host_route(net::IpAddress::parse("10.0.3.77"), true);
  rig.run(sim::millis(5));
  rig.router->fail();
  rig.router->recover();
  EXPECT_EQ(rig.dv->reachable_routes(), 0u);
  EXPECT_EQ(rig.installed(pfx("10.9.1.0/24")), nullptr);
  EXPECT_EQ(rig.advertisement(DvRig::kNorth), dvtest::connected_section());
  // A cleared table learns again from scratch.
  rig.feed(DvRig::kEast, {{pfx("10.9.2.0/24"), 1}});
  EXPECT_EQ(rig.advertisement(DvRig::kNorth),
            with_connected({{pfx("10.9.2.0/24"), 2}}));
}

TEST(DvTable, OriginatedHostRouteSupersedesLearnedHostRoute) {
  DvRig rig;
  const auto mh = net::IpAddress::parse("10.0.3.77");
  const auto host = net::Prefix::host(mh);
  rig.feed(DvRig::kWest, {{pfx("10.9.1.0/24"), 1}, {host, 2}});
  ASSERT_NE(rig.installed(host), nullptr);
  EXPECT_EQ(rig.installed(host)->kind, RouteKind::kHostSpecific);

  rig.dv->advertise_host_route(mh, true);
  EXPECT_EQ(rig.installed(host), nullptr);
  EXPECT_EQ(rig.dv->reachable_routes(), 1u);
  // A neighbor's copy never displaces our own origination.
  rig.feed(DvRig::kWest, {{host, 1}});
  EXPECT_EQ(rig.installed(host), nullptr);
  EXPECT_EQ(rig.advertisement(DvRig::kNorth),
            with_connected({{host, 0}, {pfx("10.9.1.0/24"), 2}}));
}

TEST(DvTable, InterfaceAddedLaterDropsLearnedCopyOfItsSubnet) {
  DvRig rig;
  const auto stub = pfx("10.9.8.0/24");
  rig.feed(DvRig::kWest, {{stub, 1}, {pfx("10.9.9.0/24"), 1}});
  ASSERT_NE(rig.installed(stub), nullptr);

  auto& lan = rig.topo.add_link("stub", sim::millis(1));
  (void)rig.topo.connect(*rig.router, lan,
                         net::IpAddress::parse("10.9.8.1"), 24);
  rig.feed(DvRig::kWest, {{stub, 1}, {pfx("10.9.9.0/24"), 1}});
  EXPECT_EQ(rig.installed(stub), nullptr);
  EXPECT_EQ(rig.router->routing_table().find(stub)->kind,
            RouteKind::kConnected);
  EXPECT_EQ(rig.dv->reachable_routes(), 1u);
  // The subnet is advertised once, as the fourth connected subnet.
  EXPECT_EQ(rig.advertisement(DvRig::kNorth),
            with_connected({{stub, 0}, {pfx("10.9.9.0/24"), 2}}));
}

TEST(DvTable, TruncatedUpdateIsRejectedWhole) {
  DvRig rig;
  auto body = dvtest::encode_update({{pfx("10.9.1.0/24"), 1},
                                     {pfx("10.9.2.0/24"), 1},
                                     {pfx("10.9.3.0/24"), 1}});
  body.resize(body.size() - 3);  // the last entry is cut short
  rig.feed_raw(DvRig::kWest, body);
  EXPECT_EQ(rig.dv->stats().malformed_updates, 1u);
  EXPECT_EQ(rig.dv->reachable_routes(), 0u);
  EXPECT_EQ(rig.installed(pfx("10.9.1.0/24")), nullptr);
  // Nothing half-applied outlives the route timeout.
  rig.run(sim::seconds(10));
  EXPECT_EQ(rig.installed(pfx("10.9.1.0/24")), nullptr);
  EXPECT_EQ(rig.advertisement(DvRig::kNorth), dvtest::connected_section());

  // A whole update afterwards is learned, and times out in silence.
  rig.feed(DvRig::kWest, {{pfx("10.9.1.0/24"), 1}});
  EXPECT_EQ(rig.dv->reachable_routes(), 1u);
  rig.run(sim::seconds(4));
  EXPECT_EQ(rig.dv->reachable_routes(), 0u);
  EXPECT_EQ(rig.dv->stats().routes_expired, 1u);
}

}  // namespace
}  // namespace mhrp
