// Single-source shortest paths over an abstract weighted graph.
//
// The scenario layer uses this to model a *converged* standard IP routing
// system (paper §1: "the standard IP routing algorithms will deliver the
// packet to M's home network"): it computes shortest paths from every
// router and records each one's next hops (routing::StaticRoutes). The
// benchmarks' hop counts therefore reflect optimal unicast paths,
// isolating the mobility protocols' own path stretch.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace mhrp::routing {

struct Edge {
  int to = 0;
  double cost = 1.0;
};

/// Adjacency list; vertex ids are dense [0, n).
using Graph = std::vector<std::vector<Edge>>;

struct ShortestPaths {
  static constexpr double kUnreachable =
      std::numeric_limits<double>::infinity();

  std::vector<double> distance;  // distance[v] from the source
  // predecessor[v] on a shortest path; -1 at source/unreachable.
  std::vector<int> predecessor;
  // First vertex after the source toward v; -1 if none.
  std::vector<int> first_hop;

  [[nodiscard]] bool reachable(int v) const {
    return distance[static_cast<std::size_t>(v)] != kUnreachable;
  }

  // Scratch space of the search, kept so a reused ShortestPaths does not
  // reallocate it.
  std::vector<std::pair<double, int>> heap_;
  std::vector<int> chain_;
};

/// Dijkstra from `source`. Ties are broken by vertex id so results are
/// deterministic across runs and platforms.
[[nodiscard]] ShortestPaths shortest_paths(const Graph& graph, int source);

/// The same, writing into `out` and reusing its buffers — for callers
/// that run one search per vertex.
void shortest_paths(const Graph& graph, int source, ShortestPaths& out);

/// The vertex sequence of a shortest path source→target (inclusive), or
/// empty when unreachable.
[[nodiscard]] std::vector<int> path_to(const ShortestPaths& sp, int source,
                                       int target);

}  // namespace mhrp::routing
