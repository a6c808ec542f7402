#pragma once
// Clustering tool in the spirit of Ropars et al. [30].
//
// Partitions MPI ranks into K clusters under the node-colocation constraint
// (all ranks of a physical node share a cluster — Section 6.1), with two
// objectives:
//   * kMinTotalLogged — minimize the total volume of inter-cluster traffic
//     (the paper's configuration; produces the imbalance Section 6.6
//     discusses),
//   * kBalancedLogged — minimize the *maximum per-rank* logged volume (the
//     alternative strategy Section 6.6 proposes to study; exercised by the
//     clustering ablation bench).
//
// One pipeline, near-linear in the traced edge count (DESIGN.md §10):
//   1. aggregate the rank-level CSR graph to node-groups (GroupGraph),
//   2. greedy agglomeration via a lazy max-heap of candidate cluster pairs
//      (clustering/agglomerate.hpp),
//   3. Kernighan–Lin-style refinement with delta-based move evaluation
//      (clustering/refine.hpp).
// Deterministic for a given graph.

#include <cstdint>
#include <vector>

#include "clustering/comm_graph.hpp"
#include "clustering/group_graph.hpp"
#include "clustering/refine.hpp"
#include "sim/topology.hpp"

namespace spbc::clustering {

struct PartitionResult {
  std::vector<int> cluster_of;     // rank -> cluster id in [0, k)
  uint64_t logged_bytes = 0;       // total cut volume
  uint64_t max_rank_logged = 0;    // max per-rank logged volume
  int clusters = 0;
};

class Partitioner {
 public:
  /// Reads `topo` only here (rank -> node groups); it need not outlive the
  /// Partitioner. `graph` must.
  Partitioner(const CommGraph& graph, const sim::Topology& topo);

  /// Partitions into exactly k clusters. k must be in [1, nodes]; clusters
  /// hold whole nodes. k == nranks (with 1 rank per node group) degenerates
  /// to pure message logging only when ranks_per_node==1.
  PartitionResult partition(int k, Objective objective = Objective::kMinTotalLogged) const;

  /// Baseline for comparison: contiguous block partition (node order).
  PartitionResult block_partition(int k) const;

 private:
  PartitionResult finalize(const std::vector<int>& group_cluster, int k) const;

  const CommGraph& graph_;
  int ngroups_;  // node groups (colocation units)
  GroupGraph groups_;  // CSR node-group graph (symmetric weights)
  std::vector<int> group_of_rank_;
};

}  // namespace spbc::clustering
