// Shared static routing (routing::StaticRoutes) against a reference: a
// full static table per router, one install per (router, originating
// site) in (node, interface) order with the last install winning. Every
// router's lookup() must return exactly the reference route at the first
// and the last address of every prefix in the internetwork.
//
// Also: the RoutingTable semantics the shared routes must keep (lazy
// copies, tiers, withdrawal, detaching) and the flat PrefixMap.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "routing/dijkstra.hpp"
#include "routing/prefix_map.hpp"
#include "routing/routing_table.hpp"
#include "scenario/scale_world.hpp"
#include "scenario/topology.hpp"
#include "util/rng.hpp"

namespace mhrp {
namespace {

using routing::Route;
using routing::RouteKind;
using scenario::Topology;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

// ---- The reference: full per-router tables ----

/// One router's full table: (prefix, tier) -> route, last install wins.
struct ReferenceTable {
  std::map<std::pair<net::Prefix, int>, Route> routes;

  void install(const Route& r) {
    routes[{r.prefix, routing::priority_of(r.kind)}] = r;
  }

  /// Longest prefix, then highest tier.
  [[nodiscard]] const Route* lookup(net::IpAddress dst) const {
    const Route* best = nullptr;
    for (const auto& [key, route] : routes) {
      if (!key.first.contains(dst)) continue;
      if (best == nullptr || key.first.length() > best->prefix.length() ||
          (key.first.length() == best->prefix.length() &&
           key.second > routing::priority_of(best->kind))) {
        best = &route;
      }
    }
    return best;
  }
};

/// A full table for every router: connected routes, then one static
/// install per originating site of every prefix, from the router's own
/// shortest paths.
std::map<const node::Node*, ReferenceTable> reference_tables(
    const Topology& topo) {
  const auto& nodes = topo.nodes();
  std::map<const net::Interface*, int> owner;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    for (const auto& iface : nodes[n]->interfaces()) {
      owner[iface.get()] = static_cast<int>(n);
    }
  }
  routing::Graph graph(nodes.size());
  for (const auto& link : topo.links()) {
    const auto& members = link->members();
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = 0; b < members.size(); ++b) {
        if (a == b) continue;
        graph[static_cast<std::size_t>(owner.at(members[a]))].push_back(
            {owner.at(members[b]), 1.0});
      }
    }
  }
  struct Site {
    net::Prefix prefix;
    int node;
  };
  std::vector<Site> sites;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (!nodes[n]->forwarding()) continue;
    for (const auto& iface : nodes[n]->interfaces()) {
      sites.push_back({iface->prefix(), static_cast<int>(n)});
    }
  }

  std::map<const node::Node*, ReferenceTable> tables;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const node::Node& node = *nodes[n];
    if (!node.forwarding()) continue;
    ReferenceTable& table = tables[&node];
    for (const auto& iface : node.interfaces()) {
      table.install({iface->prefix(), net::kUnspecified, iface.get(), 0,
                     RouteKind::kConnected});
    }
    const routing::ShortestPaths sp =
        routing::shortest_paths(graph, static_cast<int>(n));
    for (const Site& site : sites) {
      if (site.node == static_cast<int>(n) || !sp.reachable(site.node)) {
        continue;
      }
      bool connected = false;
      for (const auto& iface : node.interfaces()) {
        if (iface->prefix() == site.prefix) connected = true;
      }
      if (connected) continue;
      const int hop = sp.first_hop[static_cast<std::size_t>(site.node)];
      if (hop < 0) continue;
      const node::Node& hop_node = *nodes[static_cast<std::size_t>(hop)];
      net::Interface* out = nullptr;
      net::IpAddress via;
      for (const auto& iface : node.interfaces()) {
        if (!iface->attached()) continue;
        for (const auto& hop_iface : hop_node.interfaces()) {
          if (hop_iface->link() == iface->link()) {
            out = iface.get();
            via = hop_iface->ip();
          }
        }
      }
      if (out == nullptr) continue;
      table.install(
          {site.prefix, via, out,
           static_cast<int>(sp.distance[static_cast<std::size_t>(site.node)]),
           RouteKind::kStatic});
    }
  }
  return tables;
}

std::string describe(const Route* r) {
  if (r == nullptr) return "none";
  return r->prefix.to_string() + " via " + r->next_hop.to_string() + " if " +
         (r->iface != nullptr ? r->iface->name() : std::string("-")) +
         " metric " + std::to_string(r->metric) + " kind " +
         std::to_string(static_cast<int>(r->kind));
}

/// Assert lookup() == reference on every router, at the first and the
/// last address of every prefix any interface carries. Returns the
/// number of comparisons made.
std::size_t expect_matches_reference(const Topology& topo) {
  const auto reference = reference_tables(topo);
  std::set<net::Prefix> prefixes;
  for (const auto& node : topo.nodes()) {
    for (const auto& iface : node->interfaces()) {
      prefixes.insert(iface->prefix());
    }
  }
  std::size_t compared = 0;
  for (const auto& [node, table] : reference) {
    auto& live = const_cast<node::Node*>(node)->routing_table();
    for (const net::Prefix& p : prefixes) {
      for (net::IpAddress addr : {p.address(), p.broadcast()}) {
        const Route* want = table.lookup(addr);
        const Route* got = live.lookup(addr);
        ++compared;
        const bool same =
            (want == nullptr) == (got == nullptr) &&
            (want == nullptr ||
             (want->prefix == got->prefix && want->next_hop == got->next_hop &&
              want->iface == got->iface && want->metric == got->metric &&
              want->kind == got->kind));
        EXPECT_TRUE(same) << node->name() << " -> " << addr.to_string()
                          << ": want " << describe(want) << ", got "
                          << describe(got);
      }
    }
  }
  return compared;
}

// ---- Worlds ----

/// Hands out /30 point-to-point subnets for router links.
struct Circuits {
  std::uint32_t next = ip("172.16.0.0").raw();
  int count = 0;
  void wire(Topology& topo, node::Node& a, node::Node& b) {
    net::Link& link = topo.add_link("c" + std::to_string(count++));
    topo.connect(a, link, net::IpAddress(next + 1), 30);
    topo.connect(b, link, net::IpAddress(next + 2), 30);
    next += 4;
  }
};

/// A stub LAN 10.<i/250+1>.<i%250>.0/24 with the router at .1.
void add_stub(Topology& topo, node::Node& router, int i) {
  net::Link& lan = topo.add_link("stub" + std::to_string(i));
  topo.connect(router, lan,
               net::IpAddress::of(10, static_cast<std::uint8_t>(i / 250 + 1),
                                  static_cast<std::uint8_t>(i % 250), 1),
               24);
}

TEST(StaticRoutesEquivalence, Grid) {
  Topology topo;
  constexpr int kSide = 5;
  std::vector<node::Router*> r;
  for (int i = 0; i < kSide * kSide; ++i) {
    r.push_back(&topo.add_router("R" + std::to_string(i)));
    add_stub(topo, *r.back(), i);
  }
  Circuits circuits;
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      const int i = y * kSide + x;
      if (x + 1 < kSide) circuits.wire(topo, *r[i], *r[i + 1]);
      if (y + 1 < kSide) circuits.wire(topo, *r[i], *r[i + kSide]);
    }
  }
  topo.install_static_routes();
  EXPECT_GT(expect_matches_reference(topo), 0u);
}

TEST(StaticRoutesEquivalence, Tree) {
  Topology topo;
  std::vector<node::Router*> r;
  Circuits circuits;
  for (int i = 0; i < 31; ++i) {
    r.push_back(&topo.add_router("R" + std::to_string(i)));
    add_stub(topo, *r.back(), i);
    if (i > 0) circuits.wire(topo, *r[(i - 1) / 2], *r[i]);
  }
  topo.install_static_routes();
  EXPECT_GT(expect_matches_reference(topo), 0u);
}

TEST(StaticRoutesEquivalence, SharedLanWithSeveralRouters) {
  // Four routers on one LAN, one extra circuit between two of them, a
  // prefix originated at two sites, and a multihomed host that is the
  // only way to reach R4 (shortest paths may cross hosts).
  Topology topo;
  std::vector<node::Router*> r;
  for (int i = 0; i < 5; ++i) {
    r.push_back(&topo.add_router("R" + std::to_string(i)));
    add_stub(topo, *r.back(), i);
  }
  net::Link& lan = topo.add_link("lan");
  for (int i = 0; i < 4; ++i) {
    const auto host = static_cast<std::uint8_t>(i + 1);
    topo.connect(*r[i], lan, net::IpAddress::of(10, 50, 0, host), 24);
  }
  Circuits circuits;
  circuits.wire(topo, *r[0], *r[1]);
  net::Link& any_a = topo.add_link("anycastA");
  net::Link& any_b = topo.add_link("anycastB");
  topo.connect(*r[2], any_a, ip("10.99.0.1"), 24);
  topo.connect(*r[3], any_b, ip("10.99.0.2"), 24);
  node::Host& h = topo.add_host("H");
  topo.connect(h, lan, ip("10.50.0.100"), 24);
  net::Link& behind = topo.add_link("behind");
  topo.connect(h, behind, ip("10.60.0.100"), 24);
  topo.connect(*r[4], behind, ip("10.60.0.1"), 24);
  topo.install_static_routes();
  EXPECT_GT(expect_matches_reference(topo), 0u);
  // The doubly originated prefix resolves to its last reachable site.
  const Route* any = r[0]->routing_table().lookup(ip("10.99.0.7"));
  ASSERT_NE(any, nullptr);
  EXPECT_EQ(any->next_hop, ip("10.50.0.4"));  // R3, the later site
}

TEST(StaticRoutesEquivalence, ParallelLinksBetweenOneRouterPair) {
  // R1 and R2 share two circuits; the route uses the last matching
  // interface pair.
  Topology topo;
  node::Router& r1 = topo.add_router("R1");
  node::Router& r2 = topo.add_router("R2");
  node::Router& r3 = topo.add_router("R3");
  add_stub(topo, r1, 1);
  add_stub(topo, r2, 2);
  add_stub(topo, r3, 3);
  Circuits circuits;
  circuits.wire(topo, r1, r2);
  circuits.wire(topo, r1, r2);
  circuits.wire(topo, r2, r3);
  topo.install_static_routes();
  EXPECT_GT(expect_matches_reference(topo), 0u);
  const Route* to_r3 = r1.routing_table().lookup(ip("10.1.3.9"));
  ASSERT_NE(to_r3, nullptr);
  EXPECT_EQ(to_r3->next_hop, ip("172.16.0.6"));  // R2 on the second circuit
  EXPECT_EQ(to_r3->metric, 2);
}

TEST(StaticRoutesEquivalence, SourceTieBreakCounterexample) {
  // n-a, n-b, a-c, b-e, c-d, e-d with ids n=0 b=1 c=2 e=3 d=4 a=5: two
  // equal-cost paths n->d. From n's own search d's predecessor is the
  // lower-id c, so n's first hop is a; a tree rooted at d would pick b.
  Topology topo;
  node::Router& n = topo.add_router("n");
  node::Router& b = topo.add_router("b");
  node::Router& c = topo.add_router("c");
  node::Router& e = topo.add_router("e");
  node::Router& d = topo.add_router("d");
  node::Router& a = topo.add_router("a");
  Circuits circuits;
  circuits.wire(topo, n, a);  // 172.16.0.0/30, a is .2
  circuits.wire(topo, n, b);
  circuits.wire(topo, a, c);
  circuits.wire(topo, b, e);
  circuits.wire(topo, c, d);
  circuits.wire(topo, e, d);
  add_stub(topo, d, 4);
  topo.install_static_routes();
  EXPECT_GT(expect_matches_reference(topo), 0u);
  const Route* to_d = n.routing_table().lookup(ip("10.1.4.1"));
  ASSERT_NE(to_d, nullptr);
  EXPECT_EQ(to_d->next_hop, ip("172.16.0.2"));  // via a
  EXPECT_EQ(to_d->metric, 3);
}

TEST(StaticRoutesEquivalence, ScaleWorldGridAndTree) {
  // Full ScaleWorld topologies (home LAN, correspondents, cells, mobile
  // hosts) before any traffic.
  for (auto backbone : {scenario::ScaleWorldOptions::Backbone::kGrid,
                        scenario::ScaleWorldOptions::Backbone::kTree}) {
    scenario::ScaleWorldOptions opt;
    opt.backbone = backbone;
    opt.routers = 40;
    opt.foreign_agents = 8;
    opt.mobile_hosts = 8;
    opt.correspondents = 3;
    scenario::ScaleWorld world(opt);
    EXPECT_GT(expect_matches_reference(world.topo), 0u);
  }
}

// ---- RoutingTable over attached static routes ----

/// A line R0 - R1 - R2, each with a stub LAN.
struct Line {
  Topology topo;
  node::Router* r[3];
  Line() {
    Circuits circuits;
    for (int i = 0; i < 3; ++i) {
      r[i] = &topo.add_router("R" + std::to_string(i));
      add_stub(topo, *r[i], i);
      if (i > 0) circuits.wire(topo, *r[i - 1], *r[i]);
    }
    topo.install_static_routes();
  }
};

TEST(SharedStaticRoutes, CopiesARouteIntoTheTableOnFirstUse) {
  Line w;
  routing::RoutingTable& t = w.r[0]->routing_table();
  EXPECT_EQ(t.size(), 2u);  // the stub LAN and the circuit, both connected
  const Route* route = t.lookup(ip("10.1.2.5"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->kind, RouteKind::kStatic);
  EXPECT_EQ(route->metric, 2);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.lookup(ip("10.1.2.6")), route);  // same copy, pointer stable
  for (int i = 0; i < 50; ++i) {  // later copies do not move it
    (void)t.lookup(net::IpAddress(ip("172.16.0.0").raw() + 4 * i));
  }
  EXPECT_EQ(t.lookup(ip("10.1.2.6")), route);
  EXPECT_EQ(t.routes().size(), t.size());
}

TEST(SharedStaticRoutes, DynamicRouteShadowsAndWithdrawalReexposes) {
  Line w;
  routing::RoutingTable& t = w.r[0]->routing_table();
  const net::Prefix p = net::Prefix::parse("10.1.2.0/24");
  t.install({p, ip("9.9.9.9"), nullptr, 7, RouteKind::kDynamic});
  EXPECT_EQ(t.lookup(ip("10.1.2.1"))->kind, RouteKind::kDynamic);
  ASSERT_NE(t.find_kind(p, RouteKind::kStatic), nullptr);  // shadowed
  EXPECT_TRUE(t.remove_route(p, RouteKind::kDynamic));
  EXPECT_EQ(t.lookup(ip("10.1.2.1"))->kind, RouteKind::kStatic);
  EXPECT_TRUE(t.update_metric(p, RouteKind::kStatic, 9));
  EXPECT_EQ(t.lookup(ip("10.1.2.1"))->metric, 9);
}

TEST(SharedStaticRoutes, RemoveRouteSuppressesTheSharedPrefix) {
  Line w;
  routing::RoutingTable& t = w.r[0]->routing_table();
  const net::Prefix p = net::Prefix::parse("10.1.1.0/24");
  // Never looked up, yet the withdrawal still removes it.
  EXPECT_TRUE(t.remove_route(p, RouteKind::kStatic));
  EXPECT_FALSE(t.remove_route(p, RouteKind::kStatic));
  EXPECT_EQ(t.lookup(ip("10.1.1.1")), nullptr);
  EXPECT_EQ(t.find(p), nullptr);
  // remove() drops the prefix for good as well.
  const net::Prefix q = net::Prefix::parse("10.1.2.0/24");
  ASSERT_NE(t.lookup(ip("10.1.2.1")), nullptr);
  t.remove(q);
  EXPECT_EQ(t.lookup(ip("10.1.2.1")), nullptr);
  // Other prefixes are untouched.
  EXPECT_NE(t.lookup(ip("172.16.0.6")), nullptr);
}

TEST(SharedStaticRoutes, RemoveKindStaticDetaches) {
  Line w;
  routing::RoutingTable& t = w.r[0]->routing_table();
  ASSERT_NE(t.lookup(ip("10.1.2.1")), nullptr);
  t.remove_kind(RouteKind::kStatic);
  EXPECT_EQ(t.lookup(ip("10.1.2.1")), nullptr);
  EXPECT_EQ(t.lookup(ip("10.1.1.1")), nullptr);
  EXPECT_NE(t.lookup(ip("10.1.0.1")), nullptr);  // connected stays
  EXPECT_EQ(t.size(), 2u);
}

TEST(SharedStaticRoutes, InstallOrderAgainstHandInstalledStatics) {
  // As with a full install, the shared routes replace static routes
  // installed before them, and static routes installed after them win.
  Topology topo;
  Circuits circuits;
  node::Router& r0 = topo.add_router("R0");
  node::Router& r1 = topo.add_router("R1");
  add_stub(topo, r0, 0);
  add_stub(topo, r1, 1);
  circuits.wire(topo, r0, r1);
  const net::Prefix p = net::Prefix::parse("10.1.1.0/24");
  r0.routing_table().install(
      {p, ip("7.7.7.7"), nullptr, 1, RouteKind::kStatic});
  topo.install_static_routes();
  EXPECT_EQ(r0.routing_table().lookup(ip("10.1.1.1"))->next_hop,
            ip("172.16.0.2"));
  r0.routing_table().install(
      {p, ip("8.8.8.8"), nullptr, 1, RouteKind::kStatic});
  EXPECT_EQ(r0.routing_table().lookup(ip("10.1.1.1"))->next_hop,
            ip("8.8.8.8"));
}

TEST(SharedStaticRoutes, LongerOwnPrefixBeatsSharedRoute) {
  Line w;
  routing::RoutingTable& t = w.r[0]->routing_table();
  const net::IpAddress mobile = ip("10.1.2.77");
  t.install({net::Prefix::host(mobile), ip("5.5.5.5"), nullptr, 1,
             RouteKind::kHostSpecific});
  EXPECT_EQ(t.lookup(mobile)->kind, RouteKind::kHostSpecific);
  EXPECT_EQ(t.lookup(ip("10.1.2.78"))->kind, RouteKind::kStatic);
}

// ---- PrefixMap ----

TEST(PrefixMap, LongestMatchProbesOnlyWithinTheWindow) {
  routing::PrefixMap m;
  m.insert(net::Prefix::parse("0.0.0.0/0"), 0);
  m.insert(net::Prefix::parse("10.0.0.0/8"), 8);
  m.insert(net::Prefix::parse("10.1.0.0/16"), 16);
  m.insert(net::Prefix::host(ip("10.1.2.3")), 32);
  EXPECT_EQ(m.longest(ip("10.1.2.3")).value, 32u);
  EXPECT_EQ(m.longest(ip("10.1.2.4")).value, 16u);
  EXPECT_EQ(m.longest(ip("10.1.2.3"), -1, 32).value, 16u);
  EXPECT_EQ(m.longest(ip("10.1.2.3"), 16, 33).value, 32u);
  EXPECT_FALSE(m.longest(ip("10.1.2.4"), 16, 33));
  EXPECT_EQ(m.longest(ip("11.0.0.1")).value, 0u);
  EXPECT_EQ(m.longest(ip("11.0.0.1")).length, 0);
  EXPECT_TRUE(m.erase(net::Prefix::parse("0.0.0.0/0")));
  EXPECT_FALSE(m.longest(ip("11.0.0.1")));
  EXPECT_FALSE(m.erase(net::Prefix::parse("0.0.0.0/0")));
}

TEST(PrefixMap, MatchesAMapReferenceUnderChurn) {
  routing::PrefixMap m;
  std::map<net::Prefix, std::uint32_t> model;
  util::Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    const int length = static_cast<int>(rng.uniform(0, 4)) * 8;
    const auto raw = static_cast<std::uint32_t>(rng.uniform(0, 63) << 24 |
                                                rng.uniform(0, 3) << 16);
    const net::Prefix p(net::IpAddress(raw), length);
    if (rng.uniform(0, 2) == 0) {
      EXPECT_EQ(m.erase(p), model.erase(p) == 1);
    } else {
      const auto value = static_cast<std::uint32_t>(step);
      EXPECT_EQ(m.insert(p, value), !model.contains(p));
      model[p] = value;
    }
  }
  ASSERT_EQ(m.size(), model.size());
  for (const auto& [p, value] : model) EXPECT_EQ(m.find(p), value);
  for (std::uint32_t a = 0; a < 64; ++a) {
    const net::IpAddress dst((a << 24) | (1u << 16) | 5);
    std::uint32_t want = routing::PrefixMap::kNone;
    int want_length = -1;
    for (const auto& [p, value] : model) {
      if (p.contains(dst) && p.length() > want_length) {
        want = value;
        want_length = p.length();
      }
    }
    EXPECT_EQ(m.longest(dst).value, want);
  }
}

}  // namespace
}  // namespace mhrp
