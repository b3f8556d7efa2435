#include "routing/routing_table.hpp"

#include <algorithm>
#include <sstream>

namespace mhrp::routing {

RoutingTable::Slot* RoutingTable::slot_of(const net::Prefix& prefix) const {
  const std::uint32_t i = index_.find(prefix);
  return i == PrefixMap::kNone ? nullptr : &slots_[i];
}

RoutingTable::Slot& RoutingTable::emplace_slot(
    const net::Prefix& prefix) const {
  if (Slot* slot = slot_of(prefix)) return *slot;
  std::uint32_t i;
  if (free_slots_.empty()) {
    i = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    i = free_slots_.back();
    free_slots_.pop_back();
  }
  index_.insert(prefix, i);
  slots_[i].static_id = static_ ? static_->prefix_id(prefix) : PrefixMap::kNone;
  return slots_[i];
}

void RoutingTable::erase_slot(const net::Prefix& prefix) {
  const std::uint32_t i = index_.find(prefix);
  if (i == PrefixMap::kNone) return;
  index_.erase(prefix);
  slots_[i].present = 0;
  free_slots_.push_back(i);
}

bool RoutingTable::suppressed(std::uint32_t id) const {
  return std::binary_search(suppressed_.begin(), suppressed_.end(), id);
}

void RoutingTable::suppress(const net::Prefix& prefix) {
  if (!static_) return;
  const std::uint32_t id = static_->prefix_id(prefix);
  if (id == PrefixMap::kNone) return;
  auto pos = std::lower_bound(suppressed_.begin(), suppressed_.end(), id);
  if (pos == suppressed_.end() || *pos != id) suppressed_.insert(pos, id);
}

const Route* RoutingTable::materialize(std::uint32_t id) const {
  if (suppressed(id)) return nullptr;
  std::optional<Route> route = static_->resolve(static_row_, id);
  if (!route) return nullptr;
  Slot& slot = emplace_slot(route->prefix);
  const std::size_t t = tier_of(RouteKind::kStatic);
  slot.tier[t] = *route;
  slot.present |= static_cast<std::uint8_t>(1u << t);
  return &slot.tier[t];
}

const Route* RoutingTable::materialize(const net::Prefix& prefix) const {
  if (!static_) return nullptr;
  const std::uint32_t id = static_->prefix_id(prefix);
  return id == PrefixMap::kNone ? nullptr : materialize(id);
}

void RoutingTable::install(const Route& route) {
  Slot& slot = emplace_slot(route.prefix);
  const std::size_t t = tier_of(route.kind);
  slot.tier[t] = route;  // same tier: replace in place
  slot.present |= static_cast<std::uint8_t>(1u << t);
}

void RoutingTable::attach_static(std::shared_ptr<const StaticRoutes> routes,
                                 std::uint32_t row) {
  static_ = std::move(routes);
  static_row_ = row;
  suppressed_.clear();
  if (!static_) return;
  std::vector<net::Prefix> replaced;
  index_.for_each([&](const net::Prefix& prefix, std::uint32_t i) {
    const std::uint32_t id = static_->prefix_id(prefix);
    Slot& slot = slots_[i];
    slot.static_id = id;
    if (id == PrefixMap::kNone) return;
    if ((slot.present & (1u << tier_of(RouteKind::kConnected))) != 0) {
      suppressed_.push_back(id);
    } else if (static_->resolve(row, id)) {
      replaced.push_back(prefix);
    }
  });
  std::sort(suppressed_.begin(), suppressed_.end());
  for (const net::Prefix& prefix : replaced) {
    Slot& slot = *slot_of(prefix);
    slot.present &=
        static_cast<std::uint8_t>(~(1u << tier_of(RouteKind::kStatic)));
    if (slot.present == 0) erase_slot(prefix);
  }
}

void RoutingTable::remove(const net::Prefix& prefix) {
  erase_slot(prefix);
  suppress(prefix);
}

bool RoutingTable::remove_route(const net::Prefix& prefix, RouteKind kind) {
  bool removed = false;
  if (kind == RouteKind::kStatic && static_) {
    const std::uint32_t id = static_->prefix_id(prefix);
    if (id != PrefixMap::kNone && !suppressed(id)) {
      removed = static_->resolve(static_row_, id).has_value();
      suppress(prefix);
    }
  }
  Slot* slot = slot_of(prefix);
  if (slot == nullptr) return removed;
  const std::size_t t = tier_of(kind);
  if ((slot->present & (1u << t)) == 0 || slot->tier[t].kind != kind) {
    return removed;
  }
  slot->present &= static_cast<std::uint8_t>(~(1u << t));
  if (slot->present == 0) erase_slot(prefix);
  return true;
}

bool RoutingTable::update_metric(const net::Prefix& prefix, RouteKind kind,
                                 int metric) {
  if (find_kind(prefix, kind) == nullptr) return false;  // may materialize
  slot_of(prefix)->tier[tier_of(kind)].metric = metric;
  return true;
}

void RoutingTable::remove_kind(RouteKind kind) {
  const std::size_t t = tier_of(kind);
  std::vector<net::Prefix> emptied;
  index_.for_each([&](const net::Prefix& prefix, std::uint32_t i) {
    Slot& slot = slots_[i];
    if ((slot.present & (1u << t)) == 0 || slot.tier[t].kind != kind) return;
    slot.present &= static_cast<std::uint8_t>(~(1u << t));
    if (slot.present == 0) emptied.push_back(prefix);
  });
  for (const net::Prefix& prefix : emptied) erase_slot(prefix);
  if (kind == RouteKind::kStatic) {
    static_.reset();
    suppressed_.clear();
  }
}

const Route* RoutingTable::lookup(net::IpAddress dst) const {
  const PrefixMap::Match own = index_.longest(dst);
  // Only an attached prefix strictly longer than the table's own match
  // can win, and only if the index holds one inside the own prefix; walk
  // them longest first until one resolves for this row.
  const std::uint32_t own_id =
      own ? slots_[own.value].static_id : PrefixMap::kNone;
  if (static_ && (own_id == PrefixMap::kNone || static_->has_longer(own_id))) {
    for (PrefixMap::Match hit = static_->longest(dst, own.length, 33); hit;
         hit = static_->longest(dst, own.length, hit.length)) {
      if (const Route* route = materialize(hit.value)) return route;
    }
  }
  return own ? &slots_[own.value].active() : nullptr;
}

const Route* RoutingTable::find(const net::Prefix& prefix) const {
  if (const Slot* slot = slot_of(prefix)) return &slot->active();
  return materialize(prefix);
}

const Route* RoutingTable::find_kind(const net::Prefix& prefix,
                                     RouteKind kind) const {
  if (const Slot* slot = slot_of(prefix)) {
    const std::size_t t = tier_of(kind);
    if ((slot->present & (1u << t)) != 0 && slot->tier[t].kind == kind) {
      return &slot->tier[t];
    }
  }
  return kind == RouteKind::kStatic ? materialize(prefix) : nullptr;
}

std::vector<const RoutingTable::Slot*> RoutingTable::sorted_slots() const {
  // Slot order follows insertion history; anything observable (DV
  // advertisement bodies, diagnostic dumps) is emitted ascending by
  // (length, address) so output is byte-identical regardless of install
  // order. Only the active (best-tier) route of each slot is observable.
  std::vector<const Slot*> out;
  out.reserve(index_.size());
  index_.for_each([&](const net::Prefix&, std::uint32_t i) {
    out.push_back(&slots_[i]);
  });
  std::sort(out.begin(), out.end(), [](const Slot* a, const Slot* b) {
    const net::Prefix& pa = a->active().prefix;
    const net::Prefix& pb = b->active().prefix;
    if (pa.length() != pb.length()) return pa.length() < pb.length();
    return pa.address().raw() < pb.address().raw();
  });
  return out;
}

std::vector<Route> RoutingTable::routes() const {
  std::vector<Route> out;
  out.reserve(index_.size());
  for (const Slot* slot : sorted_slots()) out.push_back(slot->active());
  return out;
}

std::string RoutingTable::to_string() const {
  // Longest prefixes first, ascending addresses within a length.
  std::vector<const Slot*> slots = sorted_slots();
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot* a, const Slot* b) {
                     return a->active().prefix.length() >
                            b->active().prefix.length();
                   });
  std::ostringstream os;
  for (const Slot* slot : slots) {
    const Route& route = slot->active();
    os << route.prefix.to_string() << " via "
       << (route.next_hop.is_unspecified() ? std::string("direct")
                                           : route.next_hop.to_string())
       << " metric " << route.metric << '\n';
  }
  return os.str();
}

}  // namespace mhrp::routing
