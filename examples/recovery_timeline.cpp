// Recovery timeline: runs MiniGhost under SPBC, kills a cluster, and prints
// an annotated timeline of Algorithm 1's recovery — checkpoint waves,
// crash, detection, rollback announcements, replay, LS suppression,
// catch-up.
//
// Usage: ./build/examples/recovery_timeline [--ranks=32] [--clusters=4]

#include <cstdio>

#include "apps/app.hpp"
#include "core/spbc.hpp"
#include "harness/scenario.hpp"
#include "mpi/machine.hpp"
#include "util/cli.hpp"

using namespace spbc;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  int nranks = cli.get_int32("ranks", 32);
  int nclusters = cli.get_int32("clusters", 4);
  cli.reject_unknown();

  std::printf("Recovery timeline: MiniGhost, %d ranks, %d clusters\n\n", nranks,
              nclusters);

  harness::ScenarioConfig cfg;
  cfg.app = "MiniGhost";
  cfg.nranks = nranks;
  cfg.ranks_per_node = 8;
  cfg.nclusters = nclusters;
  cfg.protocol = harness::ProtocolKind::kSpbc;
  cfg.app_cfg.iters = 8;
  cfg.spbc.checkpoint_every = 3;
  cfg.machine.compute_noise_frac = 0.05;

  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  std::printf("failure-free execution: %.4fs, %.1f MB logged in total\n",
              ff.elapsed, static_cast<double>(ff.profile.bytes_logged) / 1e6);
  std::printf("comm ratio %.1f%%, inter-cluster share of traffic %.1f%%\n\n",
              100 * ff.profile.comm_ratio, 100 * ff.profile.inter_cluster_share);

  sim::Time failure_at = ff.elapsed * 0.6;
  std::printf("--- injecting failure of rank 0 at t=%.4fs ---\n\n", failure_at);
  harness::ScenarioResult rec = harness::run_with_failure(cfg, ff.elapsed, 0.6);
  if (!rec.run.completed || rec.recoveries.empty()) {
    std::printf("recovery failed!\n");
    return 1;
  }
  const mpi::RecoveryRecord& r = rec.recoveries.front();

  std::printf("t=%.4fs  crash of rank 0 (cluster %d, %zu ranks)\n", r.failure_time,
              r.failed_cluster, r.target_ops.size());
  std::printf("t=%.4fs  last coordinated checkpoint of that cluster\n",
              r.checkpoint_time);
  std::printf("           => lost work window: %.4fs\n",
              r.failure_time - r.checkpoint_time);
  std::printf("t=%.4fs  cluster restarted (detection + restore delays)\n",
              r.restart_time);
  std::printf("           leader: Rollback(members' received-windows) -> every "
              "rank outside the cluster\n");
  std::printf("           peers reply lastMessage + replay logs, window=50\n");
  for (const auto& [rank, t] : r.catch_up)
    std::printf("t=%.4fs  rank %d caught up\n", t, rank);
  std::printf("t=%.4fs  recovery complete: rework %.4fs (%.1f%% of the lost "
              "window)\n\n",
              r.caught_up_time, r.rework(),
              100.0 * r.rework() / (r.failure_time - r.checkpoint_time));

  std::printf("run finished at t=%.4fs (failure-free: %.4fs)\n",
              rec.elapsed, ff.elapsed);
  std::printf("failure containment: %zu of %d ranks rolled back\n",
              r.target_ops.size(), nranks);
  return 0;
}
