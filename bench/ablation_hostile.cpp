// Ablation: hostile workload matrix — lost work vs redundancy scheme under
// adversarial environment shapes (DESIGN.md §16).
//
// The same mid-run failure replays against every redundancy scheme
// {single, xor, rs} under each hostile shape: a clean run, bursty traffic
// phases, straggler/slow-node skew, a healing network partition, multi-job
// PFS interference, and a correlated whole-rack blast (the latter replaces
// the single-rank failure with one loss per rack node, staggered inside the
// control plane's correlation window). The workload is MiniFE ported to the
// four-call facade, so the bench also smoke-tests the drop-in adoption path
// at bench scale.
//
// The merit figure is lost work, ranks x (finish - t_base), where t_base is
// the checkpoint-free failure-free time UNDER THE SAME SHAPE — so a row
// isolates what the failure cost on that terrain, not what the terrain
// itself cost. Gate rows at the bottom print "pass"/"fail" tokens CI greps:
//   * hostile-all-recover — every scheme x shape cell completed and
//     recovered from its injected loss;
//   * hostile-shape-accounting — each shape's ScenarioResult counters moved
//     (straggler stall, partition holds, contended flushes, domain losses).
//
// PFS interference slows only background flushes, so it moves lost work only
// when a restore needs an epoch whose flush it delayed. The bench prints how
// far its lost work strayed from the none rows; near zero means the shape
// was inert on this run and only its contended-flush count moved.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/redundancy.hpp"

using namespace spbc;

namespace {

struct Shape {
  const char* name;
  // Applies the shape's hostile knobs; windows are placed with the clean
  // probe time so every scheme sees the identical terrain.
  void (*apply)(harness::ScenarioConfig&, sim::Time t_probe);
  bool domain_blast;  // rack blast replaces the single-rank failure
};

const Shape kShapes[] = {
    {"none", [](harness::ScenarioConfig&, sim::Time) {}, false},
    {"burst",
     [](harness::ScenarioConfig& cfg, sim::Time) {
       cfg.app_cfg.burst_factor = 3.0;
       cfg.app_cfg.burst_period = 3;
       cfg.app_cfg.burst_duty = 1;
     },
     false},
    {"straggler",
     [](harness::ScenarioConfig& cfg, sim::Time) {
       cfg.machine.straggler_factor = 1.5;
       cfg.machine.straggler_frac = 0.25;
       cfg.machine.straggler_seed = 11;
     },
     false},
    {"partition",
     [](harness::ScenarioConfig& cfg, sim::Time t_probe) {
       cfg.machine.net.partitions.push_back(
           {0.25 * t_probe, 0.45 * t_probe,
            cfg.nranks / cfg.ranks_per_node / 2});
     },
     false},
    {"pfs-interference",
     [](harness::ScenarioConfig& cfg, sim::Time) {
       // Another job owns 3/4 of the shared PFS ingest for the whole run.
       cfg.spbc.pfs_interference.push_back({0.0, 1e9, 0.25});
     },
     false},
    {"rack-blast",
     [](harness::ScenarioConfig& cfg, sim::Time) {
       cfg.hostile.rack_size = 4;
     },
     true},
};

/// The per-shape counter the accounting gate checks (0 for shapes whose
/// observable is the traffic itself).
uint64_t shape_stat(const Shape& s, const harness::ScenarioResult& r) {
  const std::string name = s.name;
  if (name == "straggler")
    return r.straggler_stall_time > 0 ? static_cast<uint64_t>(
               r.straggler_stall_time * 1e6) : 0;
  if (name == "partition") return r.partition_msgs_held;
  if (name == "pfs-interference") return r.staging.pfs_contended_flushes;
  if (name == "rack-blast") return r.domain_failures_injected;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchOpts o =
      bench::parse_opts(cli, bench::kRedundancy | bench::kEngine);
  cli.reject_unknown();
  bench::print_header("Ablation: hostile workload matrix (lost work vs scheme x shape)",
                      o);

  const int nodes = o.ranks / o.ppn;
  const int k = std::min(8, nodes);
  const std::string app = "MiniFE-facade";

  harness::ScenarioConfig base =
      bench::make_config(o, app, k, harness::ProtocolKind::kSpbc);
  base.machine.abort_on_deadlock = false;
  base.spbc.storage = ckpt::StorageLevel::kPfs;
  base.spbc.async_staging = true;
  // The cost regime where schemes differentiate: a LOCAL write the app
  // waits for and a PFS far slower than the burst rate.
  base.spbc.storage_model.local_latency = 5e-3;
  base.spbc.storage_model.pfs_bw = 2e7;
  base.spbc.snapshot_pad_bytes = 1 << 20;

  // Clean probe: places partition windows and the failure point.
  harness::ScenarioConfig probe_cfg = base;
  probe_cfg.spbc.checkpoint_every = 0;
  probe_cfg.spbc.storage = ckpt::StorageLevel::kNone;
  harness::ScenarioResult probe = harness::run_failure_free(probe_cfg);
  if (!probe.run.completed) {
    std::printf("probe run failed\n");
    return 1;
  }
  const sim::Time t_probe = probe.elapsed;
  std::printf("workload: %s, %d ranks on %d nodes, clean t_probe %.3fs\n\n",
              app.c_str(), o.ranks, nodes, t_probe);

  const struct {
    const char* name;
    ckpt::RedundancyConfig red;
  } schemes[] = {{"single", {ckpt::SchemeKind::kSingle}},
                 {"xor", bench::xor_scheme(o)},
                 {"rs", bench::rs_scheme(o)}};

  util::Table table({"Scheme", "Shape", "t_base", "Finish", "Lost work",
                     "Recov", "Shape stat"});
  bool all_recover = true;
  bool accounting_ok = true;
  // Largest |lost work(pfs-interference) - lost work(none)| over schemes;
  // kShapes lists none first.
  std::vector<double> none_lost(std::size(schemes), 0.0);
  double interference_moved = 0;

  for (const Shape& shape : kShapes) {
    // Per-shape zero point: checkpoint-free, failure-free, same terrain.
    harness::ScenarioConfig free_cfg = probe_cfg;
    shape.apply(free_cfg, t_probe);
    harness::ScenarioResult free_run = harness::run_failure_free(free_cfg);
    const bool base_ok = free_run.run.completed;
    const sim::Time t_base = base_ok ? free_run.elapsed : 0;

    for (size_t si = 0; si < std::size(schemes); ++si) {
      const auto& sch = schemes[si];
      harness::ScenarioConfig cfg = base;
      cfg.spbc.redundancy = sch.red;
      shape.apply(cfg, t_probe);
      if (shape.domain_blast) {
        cfg.hostile.domain_failures.push_back(
            {0.55 * t_base, harness::FailureDomain::kRack, 1});
      } else {
        cfg.inject_failure = true;
        cfg.failure_at = 0.55 * t_base;
        cfg.victim_rank = 3;
      }
      harness::ScenarioResult res = harness::run_scenario(cfg);
      const bool ok =
          base_ok && res.run.completed && !res.recoveries.empty();
      all_recover = all_recover && ok;
      const double lost = ok ? static_cast<double>(cfg.nranks) *
                                   (res.elapsed - t_base)
                             : 0;
      const std::string shape_name = shape.name;
      if (shape_name == "none") none_lost[si] = lost;
      if (shape_name == "pfs-interference")
        interference_moved =
            std::max(interference_moved, std::fabs(lost - none_lost[si]));
      const uint64_t stat = shape_stat(shape, res);
      if (ok && shape_name != "none" && shape_name != "burst" && stat == 0)
        accounting_ok = false;
      table.add_row({sch.name, shape.name,
                     base_ok ? util::Table::fmt(t_base, 4) : "fail",
                     ok ? util::Table::fmt(res.elapsed, 4) : "fail",
                     ok ? util::Table::fmt(lost, 2) : "fail",
                     std::to_string(res.recoveries.size()),
                     std::to_string(stat)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("pfs-interference moved lost work by at most %.2f rank-s "
              "against the none rows\n\n",
              interference_moved);

  // Gate rows (CI greps "^|" for a "fail" token).
  std::printf("| gate hostile-all-recover: %s\n",
              all_recover ? "pass" : "fail");
  std::printf("| gate hostile-shape-accounting: %s\n",
              accounting_ok ? "pass" : "fail");
  return all_recover && accounting_ok ? 0 : 1;
}
