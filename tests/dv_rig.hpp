// Test rig for routing::dv::DvProcess: one router whose three LAN
// neighbors are played by hosts. A host broadcasts hand-built update
// datagrams in the process's wire format (count, then prefix address,
// prefix length and metric per entry) and records every advertisement
// the router broadcasts onto its LAN, so a test drives and observes the
// route table through real frames only. The process is never started:
// nothing fires on its own except the sweep timer, and a test steps
// advertisements with send_updates().
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "routing/dv/dv_process.hpp"
#include "scenario/topology.hpp"
#include "util/byte_buffer.hpp"

namespace mhrp::dvtest {

struct DvEntry {
  net::Prefix prefix;
  int metric = 0;
  bool operator==(const DvEntry&) const = default;
};

inline net::Prefix pfx(const char* text) { return net::Prefix::parse(text); }

inline std::vector<std::uint8_t> encode_update(
    const std::vector<DvEntry>& entries) {
  util::ByteWriter w;
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const DvEntry& e : entries) {
    w.u32(e.prefix.address().raw());
    w.u8(static_cast<std::uint8_t>(e.prefix.length()));
    w.u8(static_cast<std::uint8_t>(e.metric));
  }
  return w.take();
}

inline std::vector<DvEntry> decode_update(std::span<const std::uint8_t> body) {
  util::ByteReader r(body);
  std::vector<DvEntry> entries(r.u16());
  for (DvEntry& e : entries) {
    const net::IpAddress addr(r.u32());
    const int length = r.u8();
    e.prefix = net::Prefix(addr, length);
    e.metric = r.u8();
  }
  return entries;
}

/// Route timeout 3 s, garbage collection 2 s later.
inline routing::dv::DvOptions rig_options() {
  routing::dv::DvOptions options;
  options.update_period = sim::seconds(1000);
  options.route_timeout = sim::seconds(3);
  options.gc_delay = sim::seconds(2);
  return options;
}

class DvRig {
 public:
  enum Side { kWest = 0, kEast = 1, kNorth = 2 };

  struct Neighbor {
    node::Host* host = nullptr;
    net::Interface* host_iface = nullptr;
    net::Interface* router_iface = nullptr;
    net::Link* link = nullptr;
    std::vector<std::vector<std::uint8_t>> heard;  // router's bodies
  };

  /// LAN k (k = 1..3) is 10.0.k.0/24: the router is .1, the host .2.
  explicit DvRig(routing::dv::DvOptions options = rig_options()) {
    router = &topo.add_router("r");
    const char* names[] = {"west", "east", "north"};
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      Neighbor& n = neighbors[k];
      const auto lan = static_cast<std::uint8_t>(k + 1);
      n.link = &topo.add_link(names[k], sim::millis(1));
      n.router_iface = &topo.connect(
          *router, *n.link, net::IpAddress::of(10, 0, lan, 1), 24);
      n.host = &topo.add_host(names[k]);
      n.host_iface = &topo.connect(
          *n.host, *n.link, net::IpAddress::of(10, 0, lan, 2), 24);
      n.host->bind_udp(routing::dv::DvProcess::kPort,
                       [&n](const net::UdpDatagram& d, const net::IpHeader& h,
                            net::Interface&) {
                         if (h.src == n.router_iface->ip()) {
                           n.heard.push_back(d.data);
                         }
                       });
    }
    dv = std::make_unique<routing::dv::DvProcess>(*router, options, 7);
  }

  DvRig(const DvRig&) = delete;
  DvRig& operator=(const DvRig&) = delete;

  /// Neighbor `from` broadcasts `body` and the world runs until the
  /// router has it.
  void feed_raw(Side from, const std::vector<std::uint8_t>& body) {
    Neighbor& n = neighbors[from];
    n.host->send_udp_broadcast(*n.host_iface, routing::dv::DvProcess::kPort,
                               routing::dv::DvProcess::kPort, body);
    run(sim::millis(5));
  }
  void feed(Side from, const std::vector<DvEntry>& entries) {
    feed_raw(from, encode_update(entries));
  }

  /// The router advertises now; returns the raw body neighbor `to`
  /// heard (empty when it heard nothing).
  std::vector<std::uint8_t> advertisement_bytes(Side to) {
    for (Neighbor& n : neighbors) n.heard.clear();
    dv->send_updates();
    run(sim::millis(5));
    const auto& heard = neighbors[to].heard;
    return heard.size() == 1 ? heard.front() : std::vector<std::uint8_t>{};
  }
  std::vector<DvEntry> advertisement(Side to) {
    return decode_update(advertisement_bytes(to));
  }

  /// The dynamic or host-specific route the router forwards on for
  /// `prefix`, or nullptr.
  const routing::Route* installed(const net::Prefix& prefix) {
    const routing::Route* route = router->routing_table().find(prefix);
    const bool learned =
        route != nullptr && (route->kind == routing::RouteKind::kDynamic ||
                             route->kind == routing::RouteKind::kHostSpecific);
    return learned ? route : nullptr;
  }

  void run(sim::Time span) { topo.sim().run_for(span); }
  [[nodiscard]] net::IpAddress ip_of(Side side) const {
    return neighbors[side].host_iface->ip();
  }

  scenario::Topology topo;
  node::Router* router = nullptr;
  std::array<Neighbor, 3> neighbors;
  std::unique_ptr<routing::dv::DvProcess> dv;
};

/// The connected-subnet section every rig router advertises first.
inline std::vector<DvEntry> connected_section() {
  return {{pfx("10.0.1.0/24"), 0}, {pfx("10.0.2.0/24"), 0},
          {pfx("10.0.3.0/24"), 0}};
}

}  // namespace mhrp::dvtest
