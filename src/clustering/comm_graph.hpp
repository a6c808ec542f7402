#pragma once
// Communication graph built from traced per-channel traffic.
//
// The paper's methodology (Section 6.1): run the application for a few
// iterations, collect communication statistics, then feed them to the
// clustering tool of Ropars et al. [30] to compute a partition that
// minimizes the volume of logged (inter-cluster) data. This module is that
// statistics container; the partitioner lives in partitioner.hpp.
//
// Storage is a build-once CSR adjacency: accumulation appends (src, dst,
// bytes) triples, and the first query sorts and merges them into per-vertex
// sorted neighbor arrays carrying both directed weights (out = a->b bytes,
// in = b->a bytes). Iteration over a vertex's neighborhood is O(degree),
// point lookups are O(log degree), and whole-graph sweeps (logged_bytes)
// walk two contiguous arrays instead of chasing std::map nodes — the
// partitioner's inner loops are built on these properties.

#include <cstdint>
#include <utility>
#include <vector>

#include "mpi/traffic.hpp"
#include "util/assert.hpp"

namespace spbc::clustering {

class CommGraph {
 public:
  /// One CSR adjacency entry: neighbor vertex plus both directed weights.
  struct Edge {
    int to = -1;
    uint64_t out = 0;  // bytes this vertex sent to `to`
    uint64_t in = 0;   // bytes `to` sent to this vertex
    uint64_t sym() const { return out + in; }
  };

  explicit CommGraph(int nranks);

  int nranks() const { return n_; }

  /// Adds traffic (bytes) from src to dst. Directions are kept separately;
  /// logged volume depends on the direction crossing the cut. Invalidates
  /// the built CSR (rebuilt lazily on the next query).
  void add_traffic(int src, int dst, uint64_t bytes);

  /// Builds from the Machine's traffic matrix.
  static CommGraph from_traffic(int nranks, const mpi::TrafficMatrix& traffic);

  uint64_t traffic(int src, int dst) const;

  /// Symmetric weight (bytes exchanged either way) — what cut-minimizing
  /// partitioners work with.
  uint64_t weight(int a, int b) const;

  /// Sorted neighbor list of `v` (self-loops excluded). O(1) after build.
  const Edge* neighbors_begin(int v) const;
  const Edge* neighbors_end(int v) const;
  size_t nedges() const;  // undirected adjacency pairs

  /// Total bytes `r` sends to other ranks (self-loops excluded) — the upper
  /// bound of its logged volume.
  uint64_t out_bytes(int r) const;

  /// Total bytes that would be logged under the given rank -> cluster map
  /// (all traffic whose endpoints live in different clusters).
  uint64_t logged_bytes(const std::vector<int>& cluster_of) const;

  /// Per-rank logged bytes (what each rank's sender log accumulates).
  std::vector<uint64_t> logged_bytes_per_rank(const std::vector<int>& cluster_of) const;

  uint64_t total_bytes() const { return total_; }

 private:
  void build() const;

  int n_;
  uint64_t total_ = 0;

  struct Triple {
    int src;
    int dst;
    uint64_t bytes;
  };
  /// Accumulation buffer. build() compacts it to one merged triple per
  /// directed channel, so memory stays proportional to the channel count
  /// (not the add_traffic call count) while later add_traffic calls can
  /// still trigger a correct rebuild.
  mutable std::vector<Triple> pending_;

  // CSR adjacency, built lazily from pending_.
  mutable bool built_ = false;
  mutable std::vector<size_t> row_ptr_;   // n_ + 1
  mutable std::vector<Edge> adj_;         // both directions of each pair
  mutable std::vector<uint64_t> out_bytes_;  // per-rank directed out total
  /// Self traffic (src == dst), merged and sorted by rank. Never logged,
  /// but traffic(r, r) must still report it.
  mutable std::vector<std::pair<int, uint64_t>> self_;
};

}  // namespace spbc::clustering
