// Layer replays for the traced run: each one feeds a slice of the
// workload's own inputs through a single layer's public functions and
// reports host nanoseconds per call. The inputs come from the run that
// just finished (its forwarded destinations, its home agent's rows, its
// event count), but every replay runs warm and alone, so the numbers are
// warm-cache estimates of the layer's cost, not shares of the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scenario/scale_world.hpp"

namespace perfbench {

/// One forwarded datagram, sampled through Node::on_forward_hook: the
/// index of the forwarding router in ScaleWorld::routers and the
/// destination it looked up.
struct ForwardSample {
  std::uint32_t router = 0;
  std::uint32_t dst = 0;
};

/// RoutingTable::lookup over the sampled (router, destination) pairs.
[[nodiscard]] double routing_lookup_ns(
    mhrp::scenario::ScaleWorld& world,
    const std::vector<ForwardSample>& samples);

/// LocationCache::lookup over the home agent's current bindings of the
/// mobiles the first correspondent sends to, in a cache of that
/// correspondent's capacity.
[[nodiscard]] double cache_lookup_ns(const mhrp::scenario::ScaleWorld& world,
                                     std::uint64_t seed);

/// BindingTable::find over a table holding the home agent's rows, probed
/// in a seeded random order.
[[nodiscard]] double binding_find_ns(const mhrp::scenario::ScaleWorld& world,
                                     std::uint64_t seed);

/// One EventQueue::pop plus one EventQueue::schedule (the hold model)
/// with `depth` events pending, for `ops` operations.
[[nodiscard]] double schedule_pop_ns(std::size_t depth, std::uint64_t ops,
                                     std::uint64_t seed);

/// Packet::serialize_into plus Packet::deserialize of a 64-byte CBR
/// datagram tunnelled with core::encapsulate.
[[nodiscard]] double codec_ns(const mhrp::scenario::ScaleWorld& world);

}  // namespace perfbench
