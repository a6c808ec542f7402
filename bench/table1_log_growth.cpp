// Table 1: "Logs growth rate per process in MB/s according to the number of
// clusters" — per application, Avg and Max per-process log growth for
// cluster counts {2, 4, 8, 16, nodes (=all inter-node), nranks (=pure
// message logging)}.
//
// Paper values for reference (512 ranks, 64 nodes):
//   MiniGhost is the heaviest logger (up to 6.3 MB/s at 512 clusters),
//   MiniFE the lightest; the average grows with the cluster count while
//   GTC's maximum stays flat from 2 to 64 clusters (ring cut).

#include <algorithm>

#include "bench_common.hpp"

using namespace spbc;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchOpts o = bench::parse_opts(cli, bench::kEngine);
  cli.reject_unknown();
  bench::print_header("Table 1: log growth rate per process (MB/s)", o);

  int nodes = o.ranks / o.ppn;
  std::vector<int> cluster_counts;
  for (int k : {2, 4, 8, 16}) {
    if (k < nodes) cluster_counts.push_back(k);
  }
  cluster_counts.push_back(nodes);    // all inter-node messages logged
  cluster_counts.push_back(o.ranks);  // pure message logging

  std::vector<std::string> header{"Clusters"};
  for (const auto& app : bench::paper_apps()) {
    header.push_back(app + " Avg");
    header.push_back(app + " Max");
  }
  util::Table table(header);

  // Reclamation companion table (gc_logs extension, DESIGN.md §7): once a
  // destination cluster's checkpoint wave commits, every channel into it
  // drops the log entries the committed epoch captured. Reclaimed = bytes
  // dropped over the run; HWM = highest live per-process log footprint —
  // with reclamation it stays bounded by the checkpoint interval instead of
  // growing with the run.
  std::vector<std::string> gc_header{"Clusters"};
  for (const auto& app : bench::paper_apps()) {
    gc_header.push_back(app + " Recl");
    gc_header.push_back(app + " HWM");
  }
  util::Table gc_table(gc_header);

  for (int k : cluster_counts) {
    std::vector<std::string> row{std::to_string(k)};
    std::vector<std::string> gc_row{std::to_string(k)};
    for (const auto& app : bench::paper_apps()) {
      harness::ScenarioConfig cfg = bench::make_config(
          o, app, std::min(k, nodes),
          k >= o.ranks ? harness::ProtocolKind::kPureLogging
                       : harness::ProtocolKind::kSpbc);
      cfg.spbc.gc_logs = true;  // measure the Table-1 reclamation effect
      harness::ScenarioResult res = harness::run_failure_free(cfg);
      if (!res.run.completed) {
        row.push_back("fail");
        row.push_back("fail");
        gc_row.push_back("fail");
        gc_row.push_back("fail");
        continue;
      }
      row.push_back(util::Table::fmt(res.avg_log_rate_mb_s, 2));
      row.push_back(util::Table::fmt(res.max_log_rate_mb_s, 2));
      gc_row.push_back(util::Table::fmt(res.log_bytes_reclaimed / 1.0e6, 2));
      gc_row.push_back(util::Table::fmt(res.log_retained_hwm / 1.0e6, 2));
    }
    table.add_row(std::move(row));
    gc_table.add_row(std::move(gc_row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "(paper, 512 ranks: MiniGhost heaviest — 5.5/6.3 at 512 clusters; "
      "MiniFE lightest — 0.5/0.6; GTC max flat at ~0.9 from 2..64 clusters)\n\n");
  std::printf("Reclaimed / live-HWM per process (MB, gc_logs on):\n%s\n",
              gc_table.render().c_str());
  return 0;
}
