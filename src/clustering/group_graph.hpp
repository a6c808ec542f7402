#pragma once
// Node-group graph for the partitioning pipeline.
//
// A "unit" is one node-group: the ranks of one physical node, which the
// colocation constraint of Section 6.1 keeps in one cluster, so the
// pipeline moves them atomically. The graph is a build-once CSR over
// symmetric weights (bytes exchanged either way between the units).

#include <cstdint>
#include <vector>

#include "clustering/comm_graph.hpp"

namespace spbc::clustering {

struct GroupGraph {
  int n = 0;
  std::vector<size_t> row_ptr;    // n + 1
  std::vector<int> adj;           // neighbor unit ids, sorted per row
  std::vector<uint64_t> w;        // symmetric weight per adjacency entry

  size_t begin(int u) const { return row_ptr[static_cast<size_t>(u)]; }
  size_t end(int u) const { return row_ptr[static_cast<size_t>(u) + 1]; }

  /// Aggregates the rank-level graph to units: every inter-unit rank edge
  /// lands on its unit pair with its symmetric weight. O(E log E).
  static GroupGraph from_ranks(const CommGraph& graph,
                               const std::vector<int>& unit_of_rank, int nunits);
};

}  // namespace spbc::clustering
