#pragma once
// Delta-based Kernighan–Lin-style refinement.
//
// Each round visits the units in index order and moves a unit to the
// cluster with the strictly best objective (ties keep the first found),
// for up to 20 rounds or until a round makes no move. Incremental state
// evaluates a candidate move of unit u in O(degree(u)) (plus the ranks that
// send into u for the balanced objective), and applying it updates the
// state in the same bound:
//
//  * per-unit per-cluster boundary weights conn[u][c] (the classic FM gain
//    table) drive the kMinTotalLogged objective: moving u from A to B
//    changes the cut by conn[u][A] - conn[u][B];
//  * per-rank logged-bytes plus per-rank per-cluster outbound tables drive
//    kBalancedLogged (objective max + 1e-9 * total, so the total breaks
//    ties when one hot rank pins the max): a move touches only the ranks
//    inside u and the ranks that send into u, and the global maximum over
//    the untouched ranks comes from a lazy max-heap with per-rank freshness
//    stamps (stale entries are discarded on pop) — the "lazy bucket" that
//    avoids an O(n) max scan per candidate.
//
// The same boundary table answers the online repartitioner's one-move query
// (best_unit_move, clustering/streaming.hpp).

#include <cstdint>
#include <optional>
#include <vector>

#include "clustering/comm_graph.hpp"
#include "clustering/group_graph.hpp"

namespace spbc::clustering {

enum class Objective { kMinTotalLogged, kBalancedLogged };

struct RefineParams {
  int k = 1;
  Objective objective = Objective::kMinTotalLogged;
  int node_cap = 0;  // max units (nodes) per cluster: ceil(g/k) + 1
  /// Property-test mode, set only by test_clustering: after every applied
  /// move, recompute the objective from scratch and assert it equals the
  /// incremental value.
  bool validate_deltas = false;
};

/// Refines `unit_cluster` (unit -> cluster in [0, k)) in place. `unit_of_rank`
/// maps every rank of `graph` to its unit in `units`. Deterministic.
void refine_partition(const CommGraph& graph, const GroupGraph& units,
                      const std::vector<int>& unit_of_rank,
                      const RefineParams& params, std::vector<int>& unit_cluster);

/// One unit moving between clusters.
struct UnitMove {
  int unit = -1;
  int from = -1;
  int to = -1;
};

/// The single best strictly cut-reducing move of one unit under
/// kMinTotalLogged, scored on refine_partition's boundary table, or none.
/// No size cap; a move never empties its source cluster. Candidates are
/// scanned in (unit, cluster) order and ties go to the lowest ids.
std::optional<UnitMove> best_unit_move(const GroupGraph& units, int k,
                                       const std::vector<int>& unit_cluster);

}  // namespace spbc::clustering
