// StaticRoutes: one topology's converged static routing, shared by every
// router in it (paper §3: routers carry ordinary IP routes; mobility
// state lives only in agents).
//
// Two parts, both immutable once built:
//  * an index mapping each routed prefix to the sites (forwarding nodes)
//    that originate it, in (node, interface) order;
//  * one compact next-hop row per router: for every site, the neighbour
//    slot of the first hop toward it and the hop metric (4 bytes), plus
//    the router's short list of neighbour slots (out interface and the
//    neighbour's address on that link).
//
// Rows are computed per *source* router with routing::shortest_paths, so
// equal-cost tie-breaks are those of the source's own Dijkstra run by
// construction. A tree rooted at each destination would be smaller but
// breaks those tie-breaks (DESIGN.md §16 has the counterexample).
//
// A RoutingTable attached to a row resolves static routes from here on
// demand and keeps the ones it uses (routing_table.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ip_address.hpp"
#include "routing/prefix_map.hpp"

namespace mhrp::net {
class Interface;
}

namespace mhrp::routing {

struct Route;

class StaticRoutes {
 public:
  /// One router's way to one neighbour: our interface on the shared link
  /// and the neighbour's address there.
  struct NextHop {
    net::Interface* iface = nullptr;
    net::IpAddress via;
  };

  /// A row entry: which NextHop leads toward the site, and the site's
  /// shortest-path distance. kNoHop marks a site this router has no
  /// route to (itself, unreachable, or no interface toward the hop).
  struct Entry {
    std::uint16_t hop = kNoHop;
    std::uint16_t metric = 0;
  };
  static constexpr std::uint16_t kNoHop = 0xFFFF;
  static constexpr std::uint16_t kMaxMetric = 0xFFFF;

  struct Origin {
    net::Prefix prefix;
    std::uint32_t site = 0;
  };

  /// `origins` lists every (prefix, site) pair in (node, interface)
  /// order; sites are dense [0, site_count).
  StaticRoutes(std::span<const Origin> origins, std::uint32_t site_count);

  /// Append a router's row: `entries` has one Entry per site, indexing
  /// into `hops`. Returns the row id.
  std::uint32_t add_row(std::span<const Entry> entries,
                        std::span<const NextHop> hops);
  /// Room for `rows` rows, so the row array is allocated once.
  void reserve_rows(std::size_t rows);

  /// Id of `prefix` in the index, or PrefixMap::kNone.
  [[nodiscard]] std::uint32_t prefix_id(const net::Prefix& prefix) const {
    return index_.find(prefix);
  }
  /// Whether some longer indexed prefix lies inside prefix `id` — when
  /// not, no static route can beat a table's own route for `id`.
  [[nodiscard]] bool has_longer(std::uint32_t id) const {
    return has_longer_[id] != 0;
  }
  /// Longest indexed prefix covering `dst` with length in (above, below).
  [[nodiscard]] PrefixMap::Match longest(net::IpAddress dst, int above,
                                         int below) const {
    return index_.longest(dst, above, below);
  }

  /// The static route `row` holds for prefix `id`: the route from the
  /// last originating site (in (node, interface) order) that the row can
  /// reach, as a full table install loop that lets the last install win
  /// would leave it. nullopt when no originating site is reachable.
  [[nodiscard]] std::optional<Route> resolve(std::uint32_t row,
                                             std::uint32_t id) const;

 private:
  // The index: prefix -> id, and by id the prefix, whether a longer
  // indexed prefix lies inside it, and its originating sites
  // (origin_site_[origin_begin_[id] .. origin_begin_[id + 1])).
  PrefixMap index_;
  std::vector<net::Prefix> prefixes_;
  std::vector<std::uint8_t> has_longer_;
  std::vector<std::uint32_t> origin_begin_;
  std::vector<std::uint32_t> origin_site_;
  // The rows: site_count_ entries each, row-major, and each row's next
  // hops (hops_ from hop_begin_[row]).
  std::uint32_t site_count_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> hop_begin_;
  std::vector<NextHop> hops_;
};

}  // namespace mhrp::routing
