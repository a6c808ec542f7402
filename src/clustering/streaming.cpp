#include "clustering/streaming.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spbc::clustering {

namespace {

/// Exact cut change of moving every rank of a unit to `to`, evaluated by
/// applying the per-rank moves sequentially on `scratch` (cut_delta is exact
/// only against the map it is given, so the unit's ranks must see each
/// other).
/// Mutates `scratch`; callers pass a throwaway copy.
int64_t unit_delta(const CommGraph& graph, std::vector<int>& scratch,
                   const std::vector<int>& ranks, int to) {
  int64_t delta = 0;
  for (int r : ranks) {
    delta += graph.cut_delta(scratch, r, to);
    scratch[static_cast<size_t>(r)] = to;
  }
  return delta;
}

}  // namespace

std::optional<NodeMove> plan_node_move(const CommGraph& graph,
                                       const std::vector<int>& cluster_of,
                                       const std::vector<int>& unit_of_rank,
                                       int nclusters) {
  SPBC_ASSERT(cluster_of.size() == unit_of_rank.size());
  if (nclusters <= 1 || cluster_of.empty()) return std::nullopt;

  // Group ranks by colocation unit and check the invariant: one cluster per
  // unit. Units are dense-ish small ints (physical node ids).
  int max_unit = 0;
  for (int u : unit_of_rank) max_unit = std::max(max_unit, u);
  std::vector<std::vector<int>> unit_ranks(static_cast<size_t>(max_unit) + 1);
  for (size_t r = 0; r < unit_of_rank.size(); ++r)
    unit_ranks[static_cast<size_t>(unit_of_rank[r])].push_back(
        static_cast<int>(r));
  std::vector<int> unit_cluster(unit_ranks.size(), -1);
  std::vector<int> cluster_units(static_cast<size_t>(nclusters), 0);
  for (size_t u = 0; u < unit_ranks.size(); ++u) {
    if (unit_ranks[u].empty()) continue;
    const int c = cluster_of[static_cast<size_t>(unit_ranks[u].front())];
    for (int r : unit_ranks[u])
      SPBC_ASSERT_MSG(cluster_of[static_cast<size_t>(r)] == c,
                      "colocation invariant violated at unit " << u);
    unit_cluster[u] = c;
    ++cluster_units[static_cast<size_t>(c)];
  }

  int best_unit = -1, best_to = -1;
  int64_t best_delta = 0;  // only strictly negative (cut-reducing) moves
  for (size_t u = 0; u < unit_ranks.size(); ++u) {
    if (unit_ranks[u].empty()) continue;
    const int from = unit_cluster[u];
    if (cluster_units[static_cast<size_t>(from)] <= 1)
      continue;  // the move would empty its source cluster
    for (int to = 0; to < nclusters; ++to) {
      if (to == from) continue;
      std::vector<int> trial = cluster_of;
      const int64_t delta = unit_delta(graph, trial, unit_ranks[u], to);
      if (delta < best_delta) {
        best_delta = delta;
        best_unit = static_cast<int>(u);
        best_to = to;
      }
    }
  }
  if (best_unit < 0) return std::nullopt;  // no strictly-improving move
  NodeMove mv;
  mv.unit = best_unit;
  mv.ranks = unit_ranks[static_cast<size_t>(best_unit)];
  mv.from = unit_cluster[static_cast<size_t>(best_unit)];
  mv.to = best_to;
  return mv;
}

}  // namespace spbc::clustering
