#include "routing/static_routes.hpp"

#include <stdexcept>

#include "routing/routing_table.hpp"

namespace mhrp::routing {

StaticRoutes::StaticRoutes(std::span<const Origin> origins,
                           std::uint32_t site_count)
    : site_count_(site_count) {
  // Number prefixes by first appearance, then group each prefix's sites
  // with a stable counting sort so they keep (node, interface) order.
  std::vector<std::uint32_t> id_of;
  id_of.reserve(origins.size());
  for (const Origin& o : origins) {
    std::uint32_t id = index_.find(o.prefix);
    if (id == PrefixMap::kNone) {
      id = static_cast<std::uint32_t>(prefixes_.size());
      index_.insert(o.prefix, id);
      prefixes_.push_back(o.prefix);
    }
    id_of.push_back(id);
  }
  origin_begin_.assign(prefixes_.size() + 1, 0);
  for (std::uint32_t id : id_of) ++origin_begin_[id + 1];
  for (std::size_t i = 1; i < origin_begin_.size(); ++i) {
    origin_begin_[i] += origin_begin_[i - 1];
  }
  has_longer_.assign(prefixes_.size(), 0);
  for (const net::Prefix& p : prefixes_) {
    for (int length = 0; length < p.length(); ++length) {
      const std::uint32_t outer = index_.find(net::Prefix(p.address(), length));
      if (outer != PrefixMap::kNone) has_longer_[outer] = 1;
    }
  }
  origin_site_.resize(origins.size());
  std::vector<std::uint32_t> cursor(origin_begin_.begin(),
                                    origin_begin_.end() - 1);
  for (std::size_t i = 0; i < origins.size(); ++i) {
    origin_site_[cursor[id_of[i]]++] = origins[i].site;
  }
}

void StaticRoutes::reserve_rows(std::size_t rows) {
  entries_.reserve(rows * site_count_);
  hop_begin_.reserve(rows);
}

std::uint32_t StaticRoutes::add_row(std::span<const Entry> entries,
                                    std::span<const NextHop> hops) {
  if (entries.size() != site_count_) {
    throw std::invalid_argument("StaticRoutes: row needs one entry per site");
  }
  if (hops.size() >= kNoHop) {
    throw std::length_error("StaticRoutes: too many next hops in one row");
  }
  hop_begin_.push_back(static_cast<std::uint32_t>(hops_.size()));
  hops_.insert(hops_.end(), hops.begin(), hops.end());
  entries_.insert(entries_.end(), entries.begin(), entries.end());
  return static_cast<std::uint32_t>(hop_begin_.size() - 1);
}

std::optional<Route> StaticRoutes::resolve(std::uint32_t row,
                                           std::uint32_t id) const {
  const Entry* entries = entries_.data() + std::size_t{row} * site_count_;
  // The last reachable origin wins, so scan the origins backwards.
  for (std::uint32_t k = origin_begin_[id + 1]; k > origin_begin_[id]; --k) {
    const Entry e = entries[origin_site_[k - 1]];
    if (e.hop == kNoHop) continue;
    const NextHop& hop = hops_[hop_begin_[row] + e.hop];
    return Route{prefixes_[id], hop.via, hop.iface, e.metric,
                 RouteKind::kStatic};
  }
  return std::nullopt;
}

}  // namespace mhrp::routing
