#pragma once
// Streaming (online) repartitioner: incremental cluster-map maintenance.
//
// The paper's pipeline (Section 6.1) partitions once, from a short profiling
// run, and pins the map for the whole execution. When the application's
// communication pattern drifts (adaptive meshes, phase changes), the pinned
// map's cut — and with it the volume of logged inter-cluster traffic — decays.
// This module closes the loop: it consumes the live TrafficMatrix-derived
// CommGraph and proposes one *node-granular* move (a whole colocation unit,
// preserving the Section 6.1 node-colocation constraint) that strictly
// reduces the logged volume under the current map.
//
// Deliberately not a re-run of the full partitioner: a full repartition can
// relabel everything, which would force a global checkpoint-group membership
// reshuffle. Moves here are incremental — one unit per cadence tick,
// scored on refinement's boundary table (best_unit_move, refine.hpp:
// O(degree) per candidate), never emptying a cluster. The protocol layer (core/spbc.cpp) migrates the unit through a
// quiescence bridge; determinism rules are in DESIGN.md §14.

#include <cstdint>
#include <optional>
#include <vector>

#include "clustering/comm_graph.hpp"

namespace spbc::clustering {

/// One planned migration: a whole colocation unit (physical node) and its
/// resident ranks, from its current cluster to `to`.
struct NodeMove {
  int unit = -1;
  std::vector<int> ranks;
  int from = -1;
  int to = -1;
};

/// The single best strictly-gain-positive unit move under the current map,
/// or none. `unit_of_rank` is the PHYSICAL colocation unit of each rank
/// (mpi::Machine::node_of — after a shrunk restart two logical nodes can
/// share one unit and then migrate together). Requires every rank of a unit
/// to share a cluster (the colocation invariant), and never empties a
/// cluster. Deterministic for a given (graph, map, grouping): candidates
/// are scanned in (unit, cluster) order and ties break toward the lowest
/// ids.
std::optional<NodeMove> plan_node_move(const CommGraph& graph,
                                       const std::vector<int>& cluster_of,
                                       const std::vector<int>& unit_of_rank,
                                       int nclusters);

}  // namespace spbc::clustering
