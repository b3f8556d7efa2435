#include "routing/dv/dv_process.hpp"

#include <algorithm>

#include "util/byte_buffer.hpp"

namespace mhrp::routing::dv {

namespace {

// Update entry wire format (unchanged from the original node-level
// service, so captures stay comparable): prefix address (4), prefix
// length (1), metric (1).
constexpr std::size_t kEntrySize = 6;

/// How many advertisement rounds a withdrawn host route stays poisoned.
constexpr int kWithdrawRounds = 3;

/// Consecutive metric rises from the same next hop before a
/// counting-to-infinity episode is suspected.
constexpr int kRiseSuspicion = 3;

RouteKind kind_of(const net::Prefix& prefix) {
  return prefix.is_host_route() ? RouteKind::kHostSpecific
                                : RouteKind::kDynamic;
}

}  // namespace

DvProcess::DvProcess(node::Node& node, Options options,
                     std::uint64_t jitter_seed)
    : node_(node),
      options_(options),
      rng_(jitter_seed),
      periodic_(node.sim(),
                [this] {
                  ++stats_.periodic_rounds;
                  send_updates();
                  arm_periodic();
                },
                sim::EventCategory::kRouting),
      triggered_(node.sim(),
                 [this] {
                   ++stats_.triggered_updates;
                   send_updates();
                 },
                 sim::EventCategory::kRouting),
      sweep_(node.sim(), [this] { sweep(); }, sim::EventCategory::kRouting) {
  node_.bind_udp(kPort, [this](const net::UdpDatagram& d,
                               const net::IpHeader& h, net::Interface& i) {
    on_update(d, h, i);
  });
  // Chain (not clobber) the node's lifecycle hooks; the destructor
  // restores them, so processes must be destroyed in reverse
  // construction order — which scenario worlds, owning them in vectors
  // alongside the nodes, already do.
  chained_state_hook_ = node_.on_state_changed;
  node_.on_state_changed = [this](bool up) {
    if (chained_state_hook_) chained_state_hook_(up);
    handle_node_state(up);
  };
  chained_iface_hook_ = node_.on_interface_state;
  node_.on_interface_state = [this](net::Interface& iface, bool up) {
    if (chained_iface_hook_) chained_iface_hook_(iface, up);
    handle_link_state(iface, up);
  };
}

DvProcess::~DvProcess() {
  stop();
  node_.unbind_udp(kPort);
  node_.on_state_changed = std::move(chained_state_hook_);
  node_.on_interface_state = std::move(chained_iface_hook_);
}

void DvProcess::start() {
  if (running_) return;
  running_ = true;
  // First advertisement after a triggered-sized jittered delay: a fleet
  // of routers started at t=0 floods initial tables quickly without
  // every message landing on the same instant.
  schedule_triggered();
  arm_periodic();
}

void DvProcess::stop() {
  running_ = false;
  periodic_.cancel();
  triggered_.cancel();
  sweep_.cancel();
}

void DvProcess::arm_periodic() {
  const auto period = options_.update_period;
  sim::Time band = static_cast<sim::Time>(
      static_cast<double>(period) * options_.periodic_jitter);
  band = std::min(band, period / 2);
  sim::Time delay = period;
  if (band > 0) {
    delay = period - band +
            static_cast<sim::Time>(
                rng_.uniform(0, static_cast<std::uint64_t>(2 * band)));
  }
  periodic_.arm(delay);
}

void DvProcess::schedule_triggered() {
  if (!running_ || triggered_.armed()) return;
  const auto lo = static_cast<std::uint64_t>(
      std::max<sim::Time>(options_.triggered_min, 0));
  const auto hi = static_cast<std::uint64_t>(
      std::max<sim::Time>(options_.triggered_max, options_.triggered_min));
  triggered_.arm(static_cast<sim::Time>(rng_.uniform(lo, hi)));
}

bool DvProcess::iface_up(const net::Interface& iface) const {
  return iface.attached() && iface.link()->is_up();
}

std::vector<std::uint8_t> DvProcess::encode_update(
    const net::Interface& out_iface) const {
  util::ByteWriter w(2 + kEntrySize * (node_.interfaces().size() +
                                       host_routes_.size() +
                                       withdrawing_.size() +
                                       learned_routes_.size()));
  std::size_t count = 0;
  const std::size_t count_at = w.size();
  w.u16(0);  // patched below

  auto emit = [&](const net::Prefix& prefix, int metric) {
    w.u32(prefix.address().raw());
    w.u8(static_cast<std::uint8_t>(prefix.length()));
    w.u8(static_cast<std::uint8_t>(metric > kInfinity ? kInfinity : metric));
    ++count;
  };

  // Connected subnets, metric 0 at the origin; a subnet whose link is
  // down is poisoned so neighbors withdraw it now instead of waiting
  // out the timeout.
  for (const auto& iface : node_.interfaces()) {
    emit(iface->prefix(), iface_up(*iface) ? 0 : kInfinity);
  }
  // Locally originated host routes (paper §3 mechanism).
  for (net::IpAddress addr : host_routes_) {
    emit(net::Prefix::host(addr), 0);
  }
  // Poisoned host-route withdrawals.
  for (const auto& [addr, rounds] : withdrawing_) {
    emit(net::Prefix::host(addr), kInfinity);
  }
  // Learned routes, ascending: split horizon with poisoned reverse
  // toward the route's own interface; timed-out routes poison
  // everywhere until garbage collection deletes them.
  for (std::size_t i = 0; i < learned_routes_.size(); ++i) {
    const Entry& entry = learned_routes_[i];
    if (options_.split_horizon && entry.iface == &out_iface &&
        !entry.poisoned()) {
      if (options_.poisoned_reverse) emit(learned_prefixes_[i], kInfinity);
      continue;
    }
    emit(learned_prefixes_[i], entry.poisoned() ? kInfinity : entry.metric);
  }

  w.patch_u16(count_at, static_cast<std::uint16_t>(count));
  return w.take();
}

void DvProcess::send_updates() {
  for (auto it = withdrawing_.begin(); it != withdrawing_.end();) {
    if (--it->second <= 0) {
      it = withdrawing_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& iface : node_.interfaces()) {
    if (!iface_up(*iface)) continue;
    auto body = encode_update(*iface);
    node_.send_udp_broadcast(*iface, kPort, kPort, body);
    ++stats_.updates_sent;
  }
}

void DvProcess::install(const net::Prefix& prefix, const Entry& entry) {
  node_.routing_table().install(
      {prefix, entry.from, entry.iface, entry.metric, kind_of(prefix)});
}

void DvProcess::note_route_change(const net::Prefix& prefix, int metric) {
  ++stats_.route_changes;
  if (on_route_change) on_route_change(prefix, metric);
}

bool DvProcess::poison(const net::Prefix& prefix, Entry& entry) {
  if (entry.poisoned()) return false;
  entry.metric = kInfinity;
  entry.poisoned_at = node_.sim().now();
  entry.consecutive_rises = 0;
  (void)node_.routing_table().remove_route(prefix, kind_of(prefix));
  ++stats_.routes_withdrawn;
  note_route_change(prefix, kInfinity);
  return true;
}

DvProcess::Slot DvProcess::find_slot(const net::Prefix& prefix,
                                     std::size_t hint) const {
  const std::size_t n = learned_prefixes_.size();
  // The slot lower_bound would return is `hint` exactly when the key
  // before it is smaller and the key at it is not.
  std::size_t index = hint;
  if (hint > n || (hint > 0 && !(learned_prefixes_[hint - 1] < prefix)) ||
      (hint < n && learned_prefixes_[hint] < prefix)) {
    index = static_cast<std::size_t>(
        std::lower_bound(learned_prefixes_.begin(), learned_prefixes_.end(),
                         prefix) -
        learned_prefixes_.begin());
  }
  return {index, index < n && learned_prefixes_[index] == prefix};
}

void DvProcess::insert_slot(std::size_t index, const net::Prefix& prefix,
                            const Entry& entry) {
  const auto at = static_cast<std::ptrdiff_t>(index);
  learned_prefixes_.insert(learned_prefixes_.begin() + at, prefix);
  learned_routes_.insert(learned_routes_.begin() + at, entry);
}

void DvProcess::forget_slot(std::size_t index) {
  const net::Prefix& prefix = learned_prefixes_[index];
  if (!learned_routes_[index].poisoned()) {
    (void)node_.routing_table().remove_route(prefix, kind_of(prefix));
  }
  const auto at = static_cast<std::ptrdiff_t>(index);
  learned_prefixes_.erase(learned_prefixes_.begin() + at);
  learned_routes_.erase(learned_routes_.begin() + at);
}

void DvProcess::forget_new_connected_prefixes() {
  const auto& ifaces = node_.interfaces();
  for (; interfaces_seen_ < ifaces.size(); ++interfaces_seen_) {
    const Slot slot = find_slot(ifaces[interfaces_seen_]->prefix(), 0);
    if (slot.found) forget_slot(slot.index);
  }
}

bool DvProcess::is_own_prefix(const net::Prefix& prefix) const {
  for (const auto& iface : node_.interfaces()) {
    if (iface->prefix() == prefix) return true;
  }
  return prefix.is_host_route() && host_routes_.contains(prefix.address());
}

void DvProcess::on_update(const net::UdpDatagram& datagram,
                          const net::IpHeader& header, net::Interface& iface) {
  if (node_.owns_address(header.src)) return;  // our own broadcast
  ++stats_.updates_received;
  util::ByteReader r(datagram.data);
  // A datagram is applied whole or not at all: a truncated one is
  // rejected before any entry reaches the table.
  if (r.remaining() < 2) {
    ++stats_.malformed_updates;
    return;
  }
  const std::uint16_t count = r.u16();
  if (r.remaining() < std::size_t{count} * kEntrySize) {
    ++stats_.malformed_updates;
    return;
  }
  if (interfaces_seen_ != node_.interfaces().size()) {
    forget_new_connected_prefixes();
  }
  const sim::Time now = node_.sim().now();
  bool changed = false;
  std::size_t hint = 0;
  for (std::uint16_t i = 0; i < count; ++i) {
    const net::IpAddress addr(r.u32());
    const int length = r.u8();
    const int metric = r.u8();
    if (length > 32) continue;
    const net::Prefix prefix(addr, length);
    const int candidate = std::min(metric + 1, kInfinity);

    const Slot slot = find_slot(prefix, hint);
    hint = slot.found ? slot.index + 1 : slot.index;
    if (!slot.found) {
      if (candidate >= kInfinity) continue;  // poison for an unknown route
      // Never override our own connected subnets or originated routes
      // (the table never holds them, so only a miss can be one).
      if (is_own_prefix(prefix)) continue;
      Entry entry;
      entry.metric = candidate;
      entry.from = header.src;
      entry.iface = &iface;
      entry.heard_at = now;
      insert_slot(slot.index, prefix, entry);
      install(prefix, entry);
      note_route_change(prefix, candidate);
      changed = true;
      continue;
    }

    Entry& entry = learned_routes_[slot.index];
    const bool from_current_next_hop = entry.from == header.src;
    if (!from_current_next_hop && candidate >= entry.metric) continue;

    if (candidate >= kInfinity) {
      // The next hop lost the route: withdraw and pass the poison on
      // (our own advertisements now carry metric 16 until GC).
      if (!entry.poisoned()) {
        ++stats_.poisons_received;
        changed |= poison(prefix, entry);
        arm_sweep();  // its GC deadline may now be the earliest
      }
      continue;
    }

    // Counting-to-infinity suspicion: the same next hop pushing the
    // metric up again and again is the classic mutual-deception loop.
    if (from_current_next_hop && !entry.poisoned() &&
        candidate > entry.metric) {
      if (++entry.consecutive_rises == kRiseSuspicion) {
        ++stats_.counting_to_infinity;
        if (on_counting_to_infinity) on_counting_to_infinity(prefix, candidate);
      }
    } else if (candidate < entry.metric) {
      entry.consecutive_rises = 0;
    }

    const bool route_changed = entry.metric != candidate ||
                               entry.from != header.src || entry.poisoned();
    entry.metric = candidate;
    entry.from = header.src;
    entry.iface = &iface;
    entry.heard_at = now;
    entry.poisoned_at = -1;
    if (route_changed) {
      install(prefix, entry);
      note_route_change(prefix, candidate);
      changed = true;
    }
  }
  if (!learned_routes_.empty() && !sweep_.armed()) arm_sweep();
  if (changed) schedule_triggered();
}

void DvProcess::sweep() {
  const sim::Time now = node_.sim().now();
  bool changed = false;
  // One compaction pass: slots [0, kept) hold the survivors in order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < learned_routes_.size(); ++i) {
    Entry& entry = learned_routes_[i];
    if (!entry.poisoned() && now - entry.heard_at >= options_.route_timeout) {
      ++stats_.routes_expired;
      changed |= poison(learned_prefixes_[i], entry);
    } else if (entry.poisoned() &&
               now - entry.poisoned_at >= options_.gc_delay) {
      continue;  // garbage-collected
    }
    if (kept != i) {
      learned_prefixes_[kept] = learned_prefixes_[i];
      learned_routes_[kept] = entry;
    }
    ++kept;
  }
  learned_prefixes_.resize(kept);
  learned_routes_.resize(kept);
  arm_sweep();
  if (changed) schedule_triggered();
}

void DvProcess::arm_sweep() {
  sim::Time next = -1;
  for (const Entry& entry : learned_routes_) {
    const sim::Time deadline = entry.poisoned()
                                   ? entry.poisoned_at + options_.gc_delay
                                   : entry.heard_at + options_.route_timeout;
    if (next < 0 || deadline < next) next = deadline;
  }
  if (next < 0) {
    sweep_.cancel();
    return;
  }
  const sim::Time now = node_.sim().now();
  sweep_.arm(next > now ? next - now : 0);
}

void DvProcess::advertise_host_route(net::IpAddress addr, bool enabled) {
  if (enabled) {
    host_routes_.insert(addr);
    withdrawing_.erase(addr);
    // If a peer's advertisement for this /32 was learned earlier, our
    // origination (metric 0) supersedes it.
    const Slot slot = find_slot(net::Prefix::host(addr), 0);
    if (slot.found) forget_slot(slot.index);
  } else if (host_routes_.erase(addr) > 0) {
    // Poison for a few rounds so neighbors flush immediately.
    withdrawing_[addr] = kWithdrawRounds;
  } else {
    return;
  }
  if (running_) {
    schedule_triggered();
  } else {
    send_updates();
  }
}

void DvProcess::handle_link_state(net::Interface& iface, bool up) {
  if (!up) {
    // Everything learned through the dead link is unreachable now; the
    // poison shows up in our next (triggered) update on the surviving
    // interfaces, and the static fallback tier takes over locally until
    // an alternate path is learned.
    bool withdrew = false;
    for (std::size_t i = 0; i < learned_routes_.size(); ++i) {
      if (learned_routes_[i].iface == &iface) {
        withdrew |= poison(learned_prefixes_[i], learned_routes_[i]);
      }
    }
    if (withdrew) arm_sweep();
  }
  // Either way the picture changed (a connected subnet came or went):
  // advertise soon. The neighbor on the other end of the link saw the
  // same transition and does the same.
  schedule_triggered();
}

void DvProcess::handle_node_state(bool up) {
  if (!up) return;
  // Reboot: a power cycle loses the process's RAM — learned routes,
  // originated host routes, poison bookkeeping. Withdraw what we had
  // installed (the static fallback tier resumes) and start over; the
  // agent layer re-originates host routes as bindings are rebuilt.
  for (std::size_t i = 0; i < learned_routes_.size(); ++i) {
    if (!learned_routes_[i].poisoned()) {
      const net::Prefix& prefix = learned_prefixes_[i];
      (void)node_.routing_table().remove_route(prefix, kind_of(prefix));
    }
  }
  learned_prefixes_.clear();
  learned_routes_.clear();
  host_routes_.clear();
  withdrawing_.clear();
  sweep_.cancel();
  if (running_) {
    triggered_.cancel();
    schedule_triggered();
    arm_periodic();
  }
}

std::size_t DvProcess::reachable_routes() const {
  return static_cast<std::size_t>(std::count_if(
      learned_routes_.begin(), learned_routes_.end(),
      [](const Entry& entry) { return !entry.poisoned(); }));
}

}  // namespace mhrp::routing::dv
