#pragma once
// Heap-driven greedy agglomeration: merge units into k clusters, heaviest
// inter-cluster weight first, under a unit-count size cap.
//
// A lazy max-heap of candidate cluster pairs drives the merges. Every
// cluster carries a version stamp that its merges bump; a popped candidate
// whose endpoint versions are stale is discarded (its replacement was pushed
// when the endpoint merged). Total work is O(E log E) for E unit-graph
// edges, because each merge pushes at most the merged cluster's current
// degree in fresh candidates.
//
// Greedy order: highest weight first, ties broken on the lexicographically
// smallest cluster-id pair; when no positive-weight pair fits under the
// cap, the scan-order-first zero-weight pair merges; when nothing fits at
// all, the cap relaxes by one unit.

#include <vector>

#include "clustering/group_graph.hpp"

namespace spbc::clustering {

/// Merges the units of `g` into exactly `k` clusters (unit-count cap
/// ceil(n / k), relaxed only when the remaining components cannot
/// otherwise reach k). Returns unit -> cluster id in [0, k). Deterministic.
std::vector<int> agglomerate(const GroupGraph& g, int k);

}  // namespace spbc::clustering
