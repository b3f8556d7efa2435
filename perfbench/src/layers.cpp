#include "layers.hpp"

#include <algorithm>
#include <chrono>

#include "core/binding_table.hpp"
#include "core/encapsulation.hpp"
#include "core/location_cache.hpp"
#include "net/packet.hpp"
#include "net/protocols.hpp"
#include "net/udp.hpp"
#include "sim/event_queue.hpp"
#include "util/byte_buffer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using mhrp::net::IpAddress;
using Clock = std::chrono::steady_clock;

// Results of every replay are folded in here so the timed calls cannot
// be optimized away.
volatile std::uint64_t g_sink = 0;

// Calls body(0 .. n-1) in passes until at least `min_seconds` of host
// time has elapsed (and at least one pass ran); returns ns per call.
template <typename Body>
double ns_per_call(std::size_t n, double min_seconds, Body&& body) {
  if (n == 0) return 0.0;
  std::uint64_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t i = 0; i < n; ++i) body(i);
    calls += n;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return elapsed * 1e9 / static_cast<double>(calls);
}

constexpr double kReplaySeconds = 0.2;

}  // namespace

double routing_lookup_ns(mhrp::scenario::ScaleWorld& world,
                         const std::vector<ForwardSample>& samples) {
  std::uint64_t sink = 0;
  const double ns = ns_per_call(samples.size(), kReplaySeconds, [&](std::size_t i) {
    const ForwardSample& s = samples[i];
    const mhrp::routing::Route* route =
        world.routers[s.router]->routing_table().lookup(IpAddress(s.dst));
    sink += route != nullptr ? static_cast<std::uint64_t>(route->metric) : 1;
  });
  g_sink = g_sink + sink;
  return ns;
}

double cache_lookup_ns(const mhrp::scenario::ScaleWorld& world,
                       std::uint64_t seed) {
  // CBR flow i is sent by correspondent i % C; replay the first one's
  // destinations, in flow order, against its cache's capacity.
  const std::size_t senders = world.correspondents.size();
  const std::uint32_t first_mobile = world.mobile_address(0).raw();
  mhrp::core::LocationCache cache(world.corr_agents.front()->cache().capacity());
  std::vector<IpAddress> keys;
  for (const auto& [mobile, fa] : world.ha->home_bindings()) {
    if (fa.is_unspecified()) continue;
    if ((mobile.raw() - first_mobile) % senders != 0) continue;
    cache.update(mobile, fa);
    keys.push_back(mobile);
  }
  mhrp::util::Rng rng(seed);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.index(i)]);
  }
  std::uint64_t sink = 0;
  const double ns = ns_per_call(keys.size(), kReplaySeconds, [&](std::size_t i) {
    sink += cache.lookup(keys[i]).has_value() ? 1 : 0;
  });
  g_sink = g_sink + sink;
  return ns;
}

double binding_find_ns(const mhrp::scenario::ScaleWorld& world,
                       std::uint64_t seed) {
  mhrp::core::BindingTable table;
  std::vector<IpAddress> keys;
  for (const auto& [mobile, fa] : world.ha->home_bindings()) {
    const auto row = table.try_emplace(mobile);
    table.set_foreign_agent(row.ref, fa);
    keys.push_back(mobile);
  }
  mhrp::util::Rng rng(seed);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.index(i)]);
  }
  std::uint64_t sink = 0;
  const double ns = ns_per_call(keys.size(), kReplaySeconds, [&](std::size_t i) {
    sink += table.foreign_agent(table.find(keys[i])).raw();
  });
  g_sink = g_sink + sink;
  return ns;
}

double schedule_pop_ns(std::size_t depth, std::uint64_t ops,
                       std::uint64_t seed) {
  if (ops == 0) return 0.0;
  depth = std::max<std::size_t>(depth, 1);
  mhrp::util::Rng rng(seed);
  // Event spacings are drawn up front so the timed loop is queue work
  // only; one simulated second spreads them like a run's timers.
  std::vector<mhrp::sim::Time> gaps(1 << 16);
  for (auto& g : gaps) g = static_cast<mhrp::sim::Time>(rng.uniform(1, 1000000));
  mhrp::sim::EventQueue queue;
  for (std::size_t i = 0; i < depth; ++i) {
    (void)queue.schedule(gaps[i % gaps.size()], [] {});
  }
  std::uint64_t sink = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    mhrp::sim::EventQueue::Fired fired = queue.pop();
    sink += static_cast<std::uint64_t>(fired.when);
    (void)queue.schedule(fired.when + gaps[i % gaps.size()], std::move(fired.action));
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  g_sink = g_sink + sink;
  return elapsed * 1e9 / static_cast<double>(ops);
}

double codec_ns(const mhrp::scenario::ScaleWorld& world) {
  mhrp::net::IpHeader h;
  h.protocol = mhrp::net::to_u8(mhrp::net::IpProto::kUdp);
  h.src = world.correspondents.front()->interfaces().front()->ip();
  h.dst = world.mobile_address(0);
  const std::vector<std::uint8_t> payload(world.options.cbr_payload, 0x5a);
  mhrp::net::Packet packet(h, mhrp::net::encode_udp({4000, 4000}, payload));
  const IpAddress fa = world.fa_routers.front()->interfaces().back()->ip();
  mhrp::core::encapsulate(packet, fa, h.src);

  mhrp::util::ByteWriter wire(packet.wire_size());
  std::uint64_t sink = 0;
  const double ns = ns_per_call(1, kReplaySeconds, [&](std::size_t) {
    wire.truncate(0);
    packet.serialize_into(wire);
    const mhrp::net::Packet parsed = mhrp::net::Packet::deserialize(wire.view());
    sink += parsed.payload().size();
  });
  g_sink = g_sink + sink;
  return ns;
}

}  // namespace perfbench
