// Ablation: elastic recovery — spare-node hot-swap vs shrunk restarts, with
// and without online repartitioning.
//
// A Poisson storm of PERMANENT node losses (the node never returns; its
// staged fragments die with it) runs against the same workload under a grid
// of arms: spare pool {0, --spares} x streaming-repartitioner cadence
// {off, --repart-period}. With spares pooled, each loss hot-swaps the dead
// node's ranks onto idle hardware and rebuilds their state from surviving
// XOR fragments; with the pool empty the machine degrades to shrunk
// restarts — survivors absorb the dead node's ranks, doubling NIC load and
// breaking cluster colocation.
//
// The merit figure is total lost work, ranks x (finish - t_base), with
// t_base the checkpoint-free failure-free time. Gate rows at the bottom
// print "pass"/"fail" tokens that CI greps:
//   * spares-cut-lost-work — the spare-pool arm strictly beats the no-spare
//     arm on lost work under the identical storm;
//   * rebuild-no-pfs — every spare rebuild was served from redundancy
//     fragments (swap count > 0, zero PFS restores);
//   * determinism — the spare-pool run is bit-identical across engine shard
//     layouts (2 queues vs one-per-cluster, threads=1).

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/redundancy.hpp"
#include "util/rng.hpp"

using namespace spbc;

namespace {

using Storm = std::vector<std::pair<sim::Time, int>>;

struct Outcome {
  bool ok = false;
  double lost_work = 0;          // ranks x (finish - t_base)
  harness::ScenarioResult res;  // all zeros when the run did not complete
};

Outcome run_one(harness::ScenarioConfig cfg, const std::vector<int>& cluster_of,
                const Storm& storm, sim::Time t_base, int spares,
                double repart_period, int engine_shards) {
  cfg.spbc.control.repartition_period = repart_period;
  cfg.machine.engine_shards = engine_shards;
  cfg.machine.engine_threads = 1;  // elastic rebind mutates serial machine state
  cfg.machine.spare_nodes = spares;
  cfg.machine.default_failure_kind = mpi::FailureKind::kNodePermanent;
  cfg.machine.abort_on_deadlock = false;
  cfg.extra_failures = storm;
  harness::ScenarioResult res = harness::run_scenario(cfg, cluster_of);
  Outcome out;
  out.ok = res.run.completed;
  if (!out.ok) return out;
  out.lost_work = static_cast<double>(cfg.nranks) * (res.elapsed - t_base);
  out.res = std::move(res);
  return out;
}

/// Poisson storm of permanent losses over the mid-run window, victims drawn
/// from DISTINCT home nodes (a second hit on an already-retired node would
/// coalesce into the first and shrink the ablation's contrast). Spaced by
/// detection + restart + a re-protection margin so each loss lands on a
/// machine that has finished absorbing the previous one — the overlapping
/// case is covered by the failure-matrix and elastic test suites.
Storm make_storm(const harness::ScenarioConfig& cfg, sim::Time t_base,
                 int max_failures) {
  Storm storm;
  util::Pcg32 rng(cfg.machine.seed, 0xe1a5);
  const int nodes = cfg.nranks / cfg.ranks_per_node;
  // The window opens mid-run, past the first committed checkpoint wave and
  // its background parity promotion: a loss before any epoch is protected
  // restarts from scratch and exercises nothing elastic-specific.
  const double mtbf = 0.15 * t_base;
  const sim::Time last_at = 0.85 * t_base;
  std::set<int> hit_nodes;
  sim::Time t = 0.45 * t_base;
  while (static_cast<int>(storm.size()) < max_failures) {
    const double u = (rng.next_u32() + 0.5) / 4294967296.0;
    t += -mtbf * std::log(1.0 - u);
    if (t > last_at) break;
    int victim = -1;
    for (int tries = 0; tries < 64 && victim < 0; ++tries) {
      const int cand =
          static_cast<int>(rng.next_bounded(static_cast<uint32_t>(cfg.nranks)));
      if (hit_nodes.insert(cand / cfg.ranks_per_node).second) victim = cand;
    }
    if (victim < 0) break;  // every node already hit
    storm.push_back({t, victim});
    if (static_cast<int>(hit_nodes.size()) >= nodes - 2) break;
    t += 0.05 * t_base;  // detection + restart + fragment re-protection
  }
  return storm;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchOpts o = bench::parse_opts(
      cli, bench::kRedundancy | bench::kElastic | bench::kEngine);
  cli.reject_unknown();
  if (o.spares <= 0) o.spares = 2;
  if (o.repart_period == 0) o.repart_period = -1;  // -1 = auto from t_base
  bench::print_header("Ablation: elastic recovery (spares / shrink / repartition)",
                      o);

  const int nodes = o.ranks / o.ppn;
  const int k = std::min(8, nodes);
  const std::string app = "MiniGhost";

  harness::ScenarioConfig base =
      bench::make_config(o, app, k, harness::ProtocolKind::kSpbc);
  base.machine.spare_nodes = 0;  // per-arm below
  base.spbc.control.repartition_period = 0;
  base.spbc.storage = ckpt::StorageLevel::kPfs;
  base.spbc.async_staging = true;
  base.spbc.redundancy = bench::xor_scheme(o);
  // Same cost regime as ablation_control: a LOCAL write the app waits for
  // and a PFS far slower than the burst rate, so restores that fall through
  // to the PFS (or rework from lost progress) carry real cost — the regime
  // where a spare pool can pay for itself.
  base.spbc.storage_model.local_latency = 5e-3;
  base.spbc.storage_model.pfs_bw = 2e7;
  base.spbc.snapshot_pad_bytes = 1 << 20;
  const std::vector<int> cluster_of = harness::compute_cluster_map(base);

  // t_base: checkpoint-free failure-free time — the lost-work zero point.
  harness::ScenarioConfig base_free = base;
  base_free.spbc.checkpoint_every = 0;
  base_free.spbc.storage = ckpt::StorageLevel::kNone;
  Outcome baseline =
      run_one(base_free, cluster_of, {}, 0, /*spares=*/0, 0, o.shards);
  if (!baseline.ok) {
    std::printf("baseline run failed\n");
    return 1;
  }
  const sim::Time t_base = baseline.res.elapsed;
  const double repart_period =
      o.repart_period < 0 ? 0.05 * t_base : o.repart_period;

  const int max_failures = std::min(4, nodes - 2);
  const Storm storm = make_storm(base, t_base, max_failures);
  std::printf("workload: %s, %d ranks on %d nodes, t_base %.3fs; storm: %zu "
              "permanent node losses\n\n",
              app.c_str(), o.ranks, nodes, t_base, storm.size());

  util::Table table({"Spares", "Repart", "Finish", "Lost work", "Ckpts",
                     "Swaps", "Shrinks", "Moves", "PFS restores", "Rebuilds"});
  auto add_row = [&](int spares, double period, const Outcome& out) {
    const harness::ScenarioResult& r = out.res;
    table.add_row({std::to_string(spares),
                   period > 0 ? util::Table::fmt(period, 3) : "off",
                   out.ok ? util::Table::fmt(r.elapsed, 4) : "fail",
                   out.ok ? util::Table::fmt(out.lost_work, 2) : "fail",
                   std::to_string(r.checkpoints),
                   std::to_string(r.spare_swaps),
                   std::to_string(r.shrink_restarts),
                   std::to_string(r.control.repartitions),
                   std::to_string(r.staging.restores_by_level[2]),
                   std::to_string(r.staging.rebuild_restores)});
  };

  Outcome grid[2][2];
  const int spare_arms[2] = {0, o.spares};
  const double repart_arms[2] = {0, repart_period};
  for (int si = 0; si < 2; ++si)
    for (int ri = 0; ri < 2; ++ri) {
      grid[si][ri] = run_one(base, cluster_of, storm, t_base, spare_arms[si],
                             repart_arms[ri], o.shards);
      add_row(spare_arms[si], repart_arms[ri], grid[si][ri]);
    }
  std::printf("%s\n", table.render().c_str());

  // Gate rows (CI greps "^|" for a "fail" token).
  const Outcome& no_spare = grid[0][0];
  const Outcome& spared = grid[1][0];
  const harness::ScenarioResult& sr = spared.res;
  const bool cut = no_spare.ok && spared.ok && !storm.empty() &&
                   spared.lost_work < no_spare.lost_work;
  std::printf("| gate spares-cut-lost-work: %s (spares=%d lost %.2f vs "
              "spares=0 lost %.2f)\n",
              cut ? "pass" : "fail", o.spares, spared.lost_work,
              no_spare.lost_work);

  // Fallbacks (a recovery walking below the committed epoch when group
  // epochs desynced) are a documented degradation and are reported, not
  // gated: even a fallback restore never touches the PFS here.
  const bool no_pfs = spared.ok && sr.spare_swaps > 0 &&
                      sr.staging.rebuild_restores > 0 &&
                      sr.staging.restores_by_level[2] == 0;
  std::printf("| gate rebuild-no-pfs: %s (swaps=%llu rebuilds=%llu "
              "pfs-restores=%llu fallbacks=%llu)\n",
              no_pfs ? "pass" : "fail",
              static_cast<unsigned long long>(sr.spare_swaps),
              static_cast<unsigned long long>(sr.staging.rebuild_restores),
              static_cast<unsigned long long>(sr.staging.restores_by_level[2]),
              static_cast<unsigned long long>(sr.staging.epoch_fallbacks));

  // Bit-identity across execution layouts: one event queue (the default)
  // vs one per cluster. Threads stay 1, required by the elastic rebind.
  Outcome det_a = run_one(base, cluster_of, storm, t_base, o.spares,
                          repart_period, /*shards=*/1);
  Outcome det_b = run_one(base, cluster_of, storm, t_base, o.spares,
                          repart_period, /*shards=*/0);
  const harness::ScenarioResult& ra = det_a.res;
  const harness::ScenarioResult& rb = det_b.res;
  const bool det_ok = det_a.ok && det_b.ok && ra.elapsed == rb.elapsed &&
                      ra.checkpoints == rb.checkpoints &&
                      ra.spare_swaps == rb.spare_swaps;
  std::printf("| gate determinism: %s (shards=1 finish %.9g vs "
              "shards=per-cluster finish %.9g)\n",
              det_ok ? "pass" : "fail", ra.elapsed, rb.elapsed);

  return cut && no_pfs && det_ok ? 0 : 1;
}
