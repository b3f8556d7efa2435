// Longest-prefix-match IP routing table.
//
// Besides ordinary network routes, the table holds host-specific (/32)
// routes — the mechanism §3 of the paper suggests for covering a whole
// routing domain with one agent — and redirect-learned entries, which
// share this table exactly as §4.3 describes cache agents sharing the
// ICMP-redirect table ("with a different type field on the table entry").
//
// Each prefix holds a small stack of routes ordered by tier: connected
// routes outrank dynamically learned ones (DV, host-specific,
// redirect), which outrank the statically installed fallback. Lookup
// always answers with the best tier, so a DV-learned route overrides
// the static route for the same prefix while it is alive, and
// withdrawing it (remove_route) re-exposes the static fallback instead
// of blackholing — the substrate the routing::dv plane converges on.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/ip_address.hpp"
#include "routing/prefix_map.hpp"
#include "routing/static_routes.hpp"

namespace mhrp::net {
class Interface;
}

namespace mhrp::routing {

/// Provenance of a route; determines its tier (see priority_of).
enum class RouteKind : std::uint8_t {
  kConnected,  // directly attached subnet
  kStatic,     // installed by topology setup ("converged standard routing")
  kDynamic,    // learned from the distance-vector protocol
  kHostSpecific,  // /32 advertised for a mobile host (paper §3)
  kRedirect,   // learned from ICMP redirect
};

/// Replacement/preference tier. Higher wins lookup; equal tiers replace
/// each other in place (a redirect and a DV-learned route for the same
/// prefix share one slot, as §4.3's shared table does).
constexpr int priority_of(RouteKind kind) {
  switch (kind) {
    case RouteKind::kConnected:
      return 3;
    case RouteKind::kDynamic:
    case RouteKind::kHostSpecific:
    case RouteKind::kRedirect:
      return 2;
    case RouteKind::kStatic:
      return 1;
  }
  return 0;
}

struct Route {
  net::Prefix prefix;
  /// Next-hop router; unspecified means "directly connected, deliver on
  /// `iface` by ARP-resolving the final destination".
  net::IpAddress next_hop;
  net::Interface* iface = nullptr;
  int metric = 1;
  RouteKind kind = RouteKind::kStatic;
};

class RoutingTable {
 public:
  /// Insert `route` into its tier for `route.prefix`: replaces any
  /// existing route of equal tier, shadows lower tiers, and is shadowed
  /// by higher ones (a connected route is never displaced by a dynamic
  /// or static install).
  void install(const Route& route);

  /// Attach the topology's shared static routes, as row `row` sees them,
  /// underneath this table (static_routes.hpp). Static routes this table
  /// holds for prefixes the row resolves are dropped (the shared route
  /// replaces them, as a fresh install would), and prefixes this table
  /// has connected routes for are never resolved from the shared index.
  /// Attaching again replaces the previous attachment.
  void attach_static(std::shared_ptr<const StaticRoutes> routes,
                     std::uint32_t row);

  /// Drop every route for `prefix`, all tiers.
  void remove(const net::Prefix& prefix);

  /// Withdraw the route of exactly `kind`'s tier for `prefix`, if its
  /// occupant is of that kind; any lower-tier route (e.g. the static
  /// fallback under a DV-learned route) becomes active again. Returns
  /// true when a route was removed.
  bool remove_route(const net::Prefix& prefix, RouteKind kind);

  /// Update the metric of the `kind`-tier route for `prefix` in place
  /// (no reordering, next hop untouched). Returns false when no route
  /// of that kind exists.
  bool update_metric(const net::Prefix& prefix, RouteKind kind, int metric);

  /// Drop every route of the given kind (used by DV refresh and by
  /// host-specific route withdrawal). kStatic also detaches the shared
  /// static routes.
  void remove_kind(RouteKind kind);

  /// Longest-prefix match on active (best-tier) routes, over this
  /// table's own routes and the attached static routes; on equal length
  /// the table's own prefix wins. A static route that wins is copied into
  /// the table on first use. Returns nullptr when no route covers `dst`.
  /// The pointer stays valid until its prefix is removed from the table.
  [[nodiscard]] const Route* lookup(net::IpAddress dst) const;

  /// Exact-prefix fetch of the active route (tests, DV comparisons).
  [[nodiscard]] const Route* find(const net::Prefix& prefix) const;

  /// Exact fetch of the `kind`-tier route even when shadowed (tests).
  [[nodiscard]] const Route* find_kind(const net::Prefix& prefix,
                                       RouteKind kind) const;

  /// Number of distinct prefixes the table itself holds; attached static
  /// routes count once they have been used.
  [[nodiscard]] std::size_t size() const { return index_.size(); }

  /// The active route of every prefix the table holds, ascending by
  /// (length, address), for diagnostics and DV advertisement. Shadowed
  /// fallback routes and unused attached static routes are not emitted.
  [[nodiscard]] std::vector<Route> routes() const;

  [[nodiscard]] std::string to_string() const;

 private:
  /// Routes for one prefix, one inline slot per tier: [0] connected,
  /// [1] dynamic/host-specific/redirect, [2] static.
  struct Slot {
    std::array<Route, 3> tier;
    std::uint8_t present = 0;  // bit t set: tier[t] holds a route
    // The prefix's id in the attached static routes, or PrefixMap::kNone.
    std::uint32_t static_id = PrefixMap::kNone;
    [[nodiscard]] const Route& active() const {
      return tier[static_cast<std::size_t>(__builtin_ctz(present))];
    }
  };

  static std::size_t tier_of(RouteKind kind) {
    return static_cast<std::size_t>(3 - priority_of(kind));
  }

  Slot* slot_of(const net::Prefix& prefix) const;
  Slot& emplace_slot(const net::Prefix& prefix) const;
  void erase_slot(const net::Prefix& prefix);
  /// The attached static route for `prefix`, copied into the table; or
  /// nullptr when the attachment has none for it.
  const Route* materialize(const net::Prefix& prefix) const;
  const Route* materialize(std::uint32_t id) const;
  [[nodiscard]] bool suppressed(std::uint32_t id) const;
  void suppress(const net::Prefix& prefix);
  [[nodiscard]] std::vector<const Slot*> sorted_slots() const;

  // Own routes: prefix -> index into slots_, whose elements never move
  // (std::deque), so a returned Route* survives later inserts. Mutable
  // because lookup() copies attached static routes in on first use;
  // only the owning node's shard ever touches a table.
  mutable PrefixMap index_;
  mutable std::deque<Slot> slots_;
  mutable std::vector<std::uint32_t> free_slots_;

  std::shared_ptr<const StaticRoutes> static_;
  std::uint32_t static_row_ = 0;
  // Sorted ids of attached prefixes this table must not resolve
  // (connected here, or withdrawn by remove/remove_route).
  std::vector<std::uint32_t> suppressed_;
};

}  // namespace mhrp::routing
