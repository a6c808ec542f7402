// Clustering study: trace an application's communication, feed it to the
// clustering tool, and inspect the trade-off Section 6.6 discusses — total
// logged volume vs per-process imbalance vs failure containment granularity.
//
// Usage: ./build/examples/clustering_study [--app=MiniGhost] [--ranks=64]

#include <cstdio>

#include "clustering/comm_graph.hpp"
#include "clustering/partitioner.hpp"
#include "harness/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace spbc;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  std::string app = cli.get_string("app", "MiniGhost");
  int nranks = cli.get_int32("ranks", 64);
  int ppn = cli.get_int32("ppn", 8);
  cli.reject_unknown();

  std::printf("Clustering study: %s at %d ranks (%d per node)\n\n", app.c_str(),
              nranks, ppn);

  // 1. Trace a few iterations (the paper's methodology, Section 6.1).
  harness::ScenarioConfig cfg;
  cfg.app = app;
  cfg.nranks = nranks;
  cfg.ranks_per_node = ppn;
  cfg.trace_iters = 4;
  clustering::CommGraph graph = harness::trace_comm_graph(cfg);
  std::printf("traced %.1f MB of traffic\n\n",
              static_cast<double>(graph.total_bytes()) / 1e6);

  // 2. Partition for a range of cluster counts and both objectives.
  sim::Topology topo = sim::Topology::for_ranks(nranks, ppn);
  clustering::Partitioner part(graph, topo);

  util::Table table({"Clusters", "Objective", "Logged (MB)", "of total %",
                     "Max/rank (MB)", "Imbalance", "Ranks lost per failure"});
  for (int k : {2, 4, 8, 16}) {
    if (k > topo.nodes()) continue;
    for (auto obj : {clustering::Objective::kMinTotalLogged,
                     clustering::Objective::kBalancedLogged}) {
      clustering::PartitionResult res = part.partition(k, obj);
      auto per_rank = graph.logged_bytes_per_rank(res.cluster_of);
      double avg = 0;
      for (uint64_t b : per_rank) avg += static_cast<double>(b);
      avg /= static_cast<double>(nranks);
      double imbalance =
          avg > 0 ? static_cast<double>(res.max_rank_logged) / avg : 0.0;
      table.add_row(
          {std::to_string(k),
           obj == clustering::Objective::kMinTotalLogged ? "min-total" : "balanced",
           util::Table::fmt(static_cast<double>(res.logged_bytes) / 1e6, 2),
           util::Table::fmt(100.0 * static_cast<double>(res.logged_bytes) /
                                static_cast<double>(graph.total_bytes()),
                            1),
           util::Table::fmt(static_cast<double>(res.max_rank_logged) / 1e6, 2),
           util::Table::fmt(imbalance, 1), std::to_string(nranks / k)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading the table:\n"
      " * more clusters  => more logging but fewer ranks roll back per failure\n"
      " * min-total      => least aggregate logging, but imbalanced (Section 6.6:\n"
      "                     the hottest process runs out of memory first)\n"
      " * balanced       => caps the per-process maximum at some aggregate cost\n");
  return 0;
}
