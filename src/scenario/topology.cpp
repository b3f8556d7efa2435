#include "scenario/topology.hpp"

#include <stdexcept>

namespace mhrp::scenario {

node::Router& Topology::add_router(const std::string& name,
                                   std::uint32_t shard) {
  auto router = std::make_unique<node::Router>(executive_for(shard), name);
  node::Router& ref = *router;
  nodes_.push_back(std::move(router));
  is_mobile_.push_back(false);
  by_name_[name] = &ref;
  notify_node_added(ref);
  return ref;
}

node::Host& Topology::add_host(const std::string& name,
                               std::uint32_t shard) {
  auto host = std::make_unique<node::Host>(executive_for(shard), name);
  node::Host& ref = *host;
  nodes_.push_back(std::move(host));
  is_mobile_.push_back(false);
  by_name_[name] = &ref;
  notify_node_added(ref);
  return ref;
}

core::MobileHost& Topology::add_mobile_host(const std::string& name,
                                            net::IpAddress home_ip,
                                            int home_prefix_length,
                                            core::MobileHostConfig config,
                                            std::uint32_t shard) {
  auto mh = std::make_unique<core::MobileHost>(executive_for(shard), name,
                                               home_ip, home_prefix_length,
                                               config);
  core::MobileHost& ref = *mh;
  nodes_.push_back(std::move(mh));
  is_mobile_.push_back(true);
  by_name_[name] = &ref;
  notify_node_added(ref);
  return ref;
}

node::Node& Topology::adopt(std::unique_ptr<node::Node> node) {
  node::Node& ref = *node;
  by_name_[node->name()] = node.get();
  nodes_.push_back(std::move(node));
  is_mobile_.push_back(false);
  notify_node_added(ref);
  return ref;
}

HookHandle Topology::add_node_added_hook(NodeAddedHook hook) {
  std::size_t slot;
  if (!free_hook_slots_.empty()) {
    slot = free_hook_slots_.back();
    free_hook_slots_.pop_back();
  } else {
    slot = node_added_hooks_.size();
    node_added_hooks_.emplace_back();
  }
  node_added_hooks_[slot].hook = std::move(hook);
  return HookHandle(this, slot, node_added_hooks_[slot].generation);
}

void HookHandle::remove() {
  if (topo_ == nullptr) return;
  Topology* topo = std::exchange(topo_, nullptr);
  if (slot_ >= topo->node_added_hooks_.size()) return;
  Topology::HookSlot& entry = topo->node_added_hooks_[slot_];
  if (entry.generation != generation_ || !entry.hook) return;
  entry.hook = nullptr;
  ++entry.generation;  // any other handle naming this slot is now stale
  topo->free_hook_slots_.push_back(slot_);
}

bool HookHandle::active() const {
  return topo_ != nullptr && slot_ < topo_->node_added_hooks_.size() &&
         topo_->node_added_hooks_[slot_].generation == generation_ &&
         static_cast<bool>(topo_->node_added_hooks_[slot_].hook);
}

void Topology::notify_node_added(node::Node& node) {
  for (auto& entry : node_added_hooks_) {
    if (entry.hook) entry.hook(node);
  }
}

net::Link& Topology::add_link(const std::string& name, sim::Time latency,
                              std::uint64_t bandwidth_bps) {
  auto link = std::make_unique<net::Link>(sim_, name, latency, bandwidth_bps);
  net::Link& ref = *link;
  links_.push_back(std::move(link));
  link_by_name_[name] = &ref;
  return ref;
}

net::Interface& Topology::connect(node::Node& node, net::Link& link,
                                  net::IpAddress ip, int prefix_length,
                                  const std::string& if_name) {
  const std::string name =
      if_name.empty() ? "eth" + std::to_string(node.interfaces().size())
                      : if_name;
  net::Interface& iface = node.add_interface(name, ip, prefix_length);
  link.attach(iface);
  return iface;
}

int Topology::index_of(const node::Node& node) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].get() == &node) return static_cast<int>(i);
  }
  throw std::invalid_argument("node not in topology: " + node.name());
}

Topology::IfaceOwnerMap Topology::iface_owners() const {
  // One O(nodes + interfaces) pass replacing the per-link-member full
  // ownership scans that made 10⁵-node world construction quadratic.
  // Lookup-only (never iterated), so pointer keys cannot leak pointer
  // order into anything deterministic.
  IfaceOwnerMap owners;
  std::size_t total = 0;
  for (const auto& node : nodes_) total += node->interfaces().size();
  owners.reserve(total);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (const auto& iface : nodes_[n]->interfaces()) {
      owners.emplace(iface.get(), static_cast<int>(n));
    }
  }
  return owners;
}

routing::Graph Topology::build_graph() const {
  const IfaceOwnerMap owners = iface_owners();
  routing::Graph graph(nodes_.size());
  // Nodes sharing a link are adjacent; cost 1 per link crossing. The
  // edge list is built in (link, member-pair) order — identical to the
  // pre-map scan, so Dijkstra tie-breaks and digests are unchanged.
  for (const auto& link : links_) {
    const auto& members = link->members();
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = 0; b < members.size(); ++b) {
        if (a == b) continue;
        const auto ia = owners.find(members[a]);
        const auto ib = owners.find(members[b]);
        if (ia != owners.end() && ib != owners.end()) {
          graph[static_cast<std::size_t>(ia->second)].push_back(
              {ib->second, 1.0});
        }
      }
    }
  }
  return graph;
}

void Topology::install_static_routes() {
  const IfaceOwnerMap owners = iface_owners();
  const routing::Graph graph = build_graph();

  // Every prefix in the internetwork with the node ("site") originating
  // it, in (node, interface) order. Only routers originate subnet
  // reachability — a host whose address does not match its attachment
  // point (a visiting mobile host) must stay invisible to routing;
  // making it reachable is the mobility protocols' job, not the routing
  // fabric's.
  std::vector<int> site_node;
  std::vector<routing::StaticRoutes::Origin> origins;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n]->forwarding() || nodes_[n]->interfaces().empty()) continue;
    const auto site = static_cast<std::uint32_t>(site_node.size());
    site_node.push_back(static_cast<int>(n));
    for (const auto& iface : nodes_[n]->interfaces()) {
      origins.push_back({iface->prefix(), site});
    }
  }
  auto routes = std::make_shared<routing::StaticRoutes>(
      origins, static_cast<std::uint32_t>(site_node.size()));

  std::size_t router_count = 0;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (!is_mobile_[n] && nodes_[n]->forwarding()) ++router_count;
  }
  routes->reserve_rows(router_count);

  std::vector<std::pair<node::Node*, std::uint32_t>> rows;
  routing::ShortestPaths sp;
  std::vector<routing::StaticRoutes::Entry> entries;
  std::vector<routing::StaticRoutes::NextHop> hops;
  constexpr int kUnset = -1;
  std::vector<int> hop_slot(nodes_.size(), kUnset);  // first hop -> slot
  std::vector<int> touched;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    node::Node& node = *nodes_[n];
    if (is_mobile_[n]) continue;  // mobile hosts route via registration

    if (!node.forwarding()) {
      // Plain host: default route via a forwarding neighbor on its LAN —
      // the first forwarding-owned member in link order, exactly the
      // neighbor the old full-node scan selected.
      for (const auto& iface : node.interfaces()) {
        if (!iface->attached()) continue;
        for (net::Interface* member : iface->link()->members()) {
          if (member == iface.get()) continue;
          const auto owner = owners.find(member);
          if (owner == owners.end()) continue;
          if (!nodes_[static_cast<std::size_t>(owner->second)]->forwarding()) {
            continue;
          }
          node.routing_table().install(
              {net::Prefix(net::kUnspecified, 0), member->ip(),
               iface.get(), 1, routing::RouteKind::kStatic});
          goto next_node;
        }
      }
    next_node:
      continue;
    }

    // Router: one next-hop row over every site, from this router's own
    // shortest-path tree (so its tie-breaks are the ones it would use).
    routing::shortest_paths(graph, static_cast<int>(n), sp);
    entries.assign(site_node.size(), {});
    hops.clear();
    for (std::size_t s = 0; s < site_node.size(); ++s) {
      const int target = site_node[s];
      if (target == static_cast<int>(n) || !sp.reachable(target)) continue;
      const int hop = sp.first_hop[static_cast<std::size_t>(target)];
      if (hop < 0) continue;
      int& slot = hop_slot[static_cast<std::size_t>(hop)];
      if (slot == kUnset) {
        touched.push_back(hop);
        // Our interface sharing a link with `hop`, and the hop's address
        // on that link; with several shared links the last pair wins.
        node::Node& hop_node = *nodes_[static_cast<std::size_t>(hop)];
        routing::StaticRoutes::NextHop next;
        for (const auto& iface : node.interfaces()) {
          if (!iface->attached()) continue;
          for (const auto& hop_iface : hop_node.interfaces()) {
            if (hop_iface->link() == iface->link()) {
              next = {iface.get(), hop_iface->ip()};
            }
          }
        }
        slot = next.iface == nullptr ? routing::StaticRoutes::kNoHop
                                     : static_cast<int>(hops.size());
        if (next.iface != nullptr) hops.push_back(next);
      }
      if (slot == routing::StaticRoutes::kNoHop) continue;
      const double metric = sp.distance[static_cast<std::size_t>(target)];
      if (metric > routing::StaticRoutes::kMaxMetric) {
        throw std::length_error("Topology: static route metric overflow");
      }
      entries[s] = {static_cast<std::uint16_t>(slot),
                    static_cast<std::uint16_t>(metric)};
    }
    rows.emplace_back(&node, routes->add_row(entries, hops));
    for (int hop : touched) hop_slot[static_cast<std::size_t>(hop)] = kUnset;
    touched.clear();
  }
  for (const auto& [node, row] : rows) {
    node->routing_table().attach_static(routes, row);
  }
}

node::Node* Topology::find(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

net::Link* Topology::find_link(const std::string& name) {
  auto it = link_by_name_.find(name);
  return it == link_by_name_.end() ? nullptr : it->second;
}

int Topology::hop_distance(const node::Node& a, const node::Node& b) {
  const routing::Graph graph = build_graph();
  const auto sp = routing::shortest_paths(graph, index_of(a));
  const int target = index_of(b);
  if (!sp.reachable(target)) return -1;
  return static_cast<int>(sp.distance[static_cast<std::size_t>(target)]);
}

std::vector<const net::Link*> Topology::cross_shard_links() const {
  std::vector<const net::Link*> crossing;
  for (const auto& link : links_) {
    const auto& members = link->members();
    bool crosses = false;
    for (std::size_t i = 1; i < members.size() && !crosses; ++i) {
      crosses = members[i]->shard() != members[0]->shard();
    }
    if (crosses) crossing.push_back(link.get());
  }
  return crossing;
}

sim::Time Topology::min_cross_shard_latency() const {
  sim::Time min_latency = 0;
  bool any = false;
  for (const net::Link* link : cross_shard_links()) {
    if (!any || link->latency() < min_latency) {
      min_latency = link->latency();
      any = true;
    }
  }
  return any ? min_latency : 0;
}

}  // namespace mhrp::scenario
