// Human-readable protocol tracing: attach to a Topology and every
// delivery and forwarding event prints one line — time, node, protocol,
// addresses, and (for MHRP packets) the tunnel header's mobile host and
// previous-source list. The examples enable it with MHRP_TRACE=1.
//
// The tracer chains onto the nodes' metric hooks, so it coexists with a
// FlowRecorder attached before or after it.
#pragma once

#include <functional>
#include <iosfwd>

#include "scenario/topology.hpp"

namespace mhrp::scenario {

class Tracer {
 public:
  /// Attach to every node currently in the topology, writing to `out`
  /// (defaults to std::clog). Nodes added to the topology later are
  /// attached too, via the topology's node-added hook, so construction
  /// order no longer silently leaves late nodes untraced.
  ///
  /// Throws std::logic_error when the topology runs on two or more
  /// shards: worker threads would interleave the output stream. Run the
  /// scenario with shards == 1 to trace it (DESIGN.md §13); the
  /// event-loop profiler has the same restriction
  /// (ShardedExecutive::set_profiler).
  explicit Tracer(Topology& topo, std::ostream* out = nullptr);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True when the MHRP_TRACE environment variable asks for tracing.
  static bool enabled_by_env();

  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  void attach(node::Node& node);
  void print(const char* verb, const node::Node& node,
             const net::Packet& packet);

  Topology& topo_;
  std::ostream* out_;
  std::uint64_t events_ = 0;
  HookHandle hook_;
};

}  // namespace mhrp::scenario
