#include "clustering/streaming.hpp"

#include <algorithm>

#include "clustering/group_graph.hpp"
#include "clustering/refine.hpp"
#include "util/assert.hpp"

namespace spbc::clustering {

std::optional<NodeMove> plan_node_move(const CommGraph& graph,
                                       const std::vector<int>& cluster_of,
                                       const std::vector<int>& unit_of_rank,
                                       int nclusters) {
  SPBC_ASSERT(cluster_of.size() == unit_of_rank.size());
  if (nclusters <= 1 || cluster_of.empty()) return std::nullopt;

  // Renumber the physical units that hold ranks densely, in ascending id
  // order: spare and retired nodes own no ranks and must not count toward a
  // cluster's size, and the ascending order keeps the lowest-id tie-break.
  int max_unit = 0;
  for (int u : unit_of_rank) max_unit = std::max(max_unit, u);
  std::vector<int> dense(static_cast<size_t>(max_unit) + 1, -1);
  for (int u : unit_of_rank) dense[static_cast<size_t>(u)] = 0;
  std::vector<int> physical;  // dense id -> physical unit
  for (int u = 0; u <= max_unit; ++u) {
    if (dense[static_cast<size_t>(u)] < 0) continue;
    dense[static_cast<size_t>(u)] = static_cast<int>(physical.size());
    physical.push_back(u);
  }

  // Check the colocation invariant (one cluster per unit) while mapping.
  std::vector<int> unit_of(unit_of_rank.size());
  std::vector<int> unit_cluster(physical.size(), -1);
  for (size_t r = 0; r < unit_of_rank.size(); ++r) {
    const int u = dense[static_cast<size_t>(unit_of_rank[r])];
    unit_of[r] = u;
    int& c = unit_cluster[static_cast<size_t>(u)];
    if (c < 0) c = cluster_of[r];
    SPBC_ASSERT_MSG(c == cluster_of[r],
                    "colocation invariant violated at unit " << unit_of_rank[r]);
  }

  const GroupGraph units = GroupGraph::from_ranks(
      graph, unit_of, static_cast<int>(physical.size()));
  const std::optional<UnitMove> best =
      best_unit_move(units, nclusters, unit_cluster);
  if (!best) return std::nullopt;  // no strictly-improving move
  NodeMove mv;
  mv.unit = physical[static_cast<size_t>(best->unit)];
  for (size_t r = 0; r < unit_of.size(); ++r)
    if (unit_of[r] == best->unit) mv.ranks.push_back(static_cast<int>(r));
  mv.from = best->from;
  mv.to = best->to;
  return mv;
}

}  // namespace spbc::clustering
