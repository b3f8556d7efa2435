#include "routing/dijkstra.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace mhrp::routing {

ShortestPaths shortest_paths(const Graph& graph, int source) {
  ShortestPaths sp;
  shortest_paths(graph, source, sp);
  return sp;
}

void shortest_paths(const Graph& graph, int source, ShortestPaths& sp) {
  const std::size_t n = graph.size();
  sp.distance.assign(n, ShortestPaths::kUnreachable);
  sp.predecessor.assign(n, -1);
  sp.first_hop.assign(n, -1);

  using Item = std::pair<double, int>;  // (distance, vertex)
  std::vector<Item>& heap = sp.heap_;
  heap.clear();
  const auto later = std::greater<>();  // min-heap on (distance, vertex)
  sp.distance[static_cast<std::size_t>(source)] = 0.0;
  heap.emplace_back(0.0, source);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [dist, u] = heap.back();
    heap.pop_back();
    if (dist > sp.distance[static_cast<std::size_t>(u)]) continue;
    for (const Edge& e : graph[static_cast<std::size_t>(u)]) {
      const double candidate = dist + e.cost;
      auto& best = sp.distance[static_cast<std::size_t>(e.to)];
      int& pred = sp.predecessor[static_cast<std::size_t>(e.to)];
      if (candidate < best) {
        best = candidate;
        pred = u;
        heap.emplace_back(candidate, e.to);
        std::push_heap(heap.begin(), heap.end(), later);
      } else if (candidate == best && u < pred) {
        // Equal-cost tie broken by lower predecessor id for determinism.
        // The distance is unchanged, so the vertex needs no second heap
        // entry: popping it again would relax nothing new.
        pred = u;
      }
    }
  }

  // First hops from the predecessor tree: walk up from each vertex only
  // until a vertex whose first hop is known, then fill in the walked
  // chain — linear overall instead of one full walk per vertex.
  std::vector<int>& chain = sp.chain_;
  for (std::size_t v = 0; v < n; ++v) {
    if (static_cast<int>(v) == source || !sp.reachable(static_cast<int>(v))) {
      continue;
    }
    int cursor = static_cast<int>(v);
    chain.clear();
    while (sp.first_hop[static_cast<std::size_t>(cursor)] < 0 &&
           sp.predecessor[static_cast<std::size_t>(cursor)] != source) {
      chain.push_back(cursor);
      cursor = sp.predecessor[static_cast<std::size_t>(cursor)];
    }
    const int hop = sp.first_hop[static_cast<std::size_t>(cursor)] >= 0
                        ? sp.first_hop[static_cast<std::size_t>(cursor)]
                        : cursor;
    sp.first_hop[static_cast<std::size_t>(cursor)] = hop;
    for (int w : chain) sp.first_hop[static_cast<std::size_t>(w)] = hop;
  }
}

std::vector<int> path_to(const ShortestPaths& sp, int source, int target) {
  if (!sp.reachable(target)) return {};
  std::vector<int> path;
  for (int v = target; v != -1;
       v = sp.predecessor[static_cast<std::size_t>(v)]) {
    path.push_back(v);
    if (v == source) break;
  }
  std::reverse(path.begin(), path.end());
  if (path.empty() || path.front() != source) return {};
  return path;
}

}  // namespace mhrp::routing
