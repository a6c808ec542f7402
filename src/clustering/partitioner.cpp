#include "clustering/partitioner.hpp"

#include <algorithm>

#include "clustering/agglomerate.hpp"
#include "util/assert.hpp"

namespace spbc::clustering {

Partitioner::Partitioner(const CommGraph& graph, const sim::Topology& topo)
    : graph_(graph), ngroups_(topo.nodes()) {
  SPBC_ASSERT(graph.nranks() == topo.nranks());
  group_of_rank_.resize(static_cast<size_t>(graph.nranks()));
  for (int r = 0; r < graph.nranks(); ++r)
    group_of_rank_[static_cast<size_t>(r)] = topo.node_of(r);
  groups_ = GroupGraph::from_ranks(graph, group_of_rank_, ngroups_);
}

PartitionResult Partitioner::finalize(const std::vector<int>& group_cluster,
                                      int k) const {
  PartitionResult res;
  res.clusters = k;
  res.cluster_of.resize(static_cast<size_t>(graph_.nranks()));
  for (int r = 0; r < graph_.nranks(); ++r)
    res.cluster_of[static_cast<size_t>(r)] =
        group_cluster[static_cast<size_t>(group_of_rank_[static_cast<size_t>(r)])];
  res.logged_bytes = graph_.logged_bytes(res.cluster_of);
  auto per_rank = graph_.logged_bytes_per_rank(res.cluster_of);
  res.max_rank_logged = per_rank.empty() ? 0 : *std::max_element(per_rank.begin(),
                                                                 per_rank.end());
  return res;
}

PartitionResult Partitioner::partition(int k, Objective objective) const {
  SPBC_ASSERT_MSG(k >= 1 && k <= ngroups_,
                  "k=" << k << " must be in [1, nodes=" << ngroups_ << "]");

  RefineParams rp;
  rp.k = k;
  rp.objective = objective;
  rp.node_cap = ((ngroups_ + k - 1) / k) + 1;  // refinement slack

  std::vector<int> group_cluster = agglomerate(groups_, k);
  refine_partition(graph_, groups_, group_of_rank_, rp, group_cluster);
  return finalize(group_cluster, k);
}

PartitionResult Partitioner::block_partition(int k) const {
  SPBC_ASSERT(k >= 1 && k <= ngroups_);
  std::vector<int> group_cluster(static_cast<size_t>(ngroups_));
  int per = (ngroups_ + k - 1) / k;
  for (int g = 0; g < ngroups_; ++g)
    group_cluster[static_cast<size_t>(g)] = std::min(g / per, k - 1);
  return finalize(group_cluster, k);
}

}  // namespace spbc::clustering
