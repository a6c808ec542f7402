// Ablation: the self-tuning reliability control plane vs static schedules.
//
// A drifting-MTBF failure process — a calm phase, then a storm whose MTBF is
// --mtbf-drift times shorter, seasoned with correlated double losses and
// silent fragment corruptions — runs against the same workload under:
//
//   * six static configurations: checkpoint interval {1,2,4} x redundancy
//     scheme {xor, rs}, full-depth staging every epoch, no scrubbing; and
//   * the controller: observed-MTBF Young/Daly pacing per storage level
//     (LOCAL interval + redundancy/PFS epoch strides), background scrub
//     repair, and (with --escalate) XOR -> RS scheme escalation on
//     correlated double losses.
//
// The merit figure is total lost work, ranks x (finish - t_base), where
// t_base is the checkpoint-free failure-free time: everything a schedule
// costs (checkpoint writes, rework after rollbacks, PFS restores) lands in
// that one number. Gate rows at the bottom print "pass"/"fail" tokens that
// CI greps:
//   * controller-beats-statics — strictly less lost work than EVERY static;
//   * scrub-repair — every injected silent loss detected AND repaired by
//     the audit wave, none still believed live at the end;
//   * determinism — the controller run is bit-identical on a resharded
//     engine (same finish time to the last bit).

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/redundancy.hpp"
#include "util/rng.hpp"

using namespace spbc;

namespace {

struct FailureEvent {
  sim::Time at = 0;
  int victim = -1;
};

struct Schedule {
  std::vector<FailureEvent> failures;
  std::vector<std::pair<sim::Time, uint64_t>> silent_losses;
  int doubles = 0;
};

struct Outcome {
  bool ok = false;
  sim::Time finish = 0;
  double lost_work = 0;  // ranks x (finish - t_base)
  uint64_t checkpoints = 0;
  uint64_t pfs_restores = 0;
  uint64_t epoch_fallbacks = 0;
  uint64_t silent_injected = 0;
  uint64_t scrubs_detected = 0;
  uint64_t scrubs_repaired = 0;
  uint64_t corrupt_live = 0;
  uint64_t escalations = 0;
};

Outcome run_one(const harness::ScenarioConfig& base,
                const std::vector<int>& cluster_of, const Schedule& sched,
                sim::Time t_base, int engine_shards) {
  harness::ScenarioConfig cfg = base;
  mpi::MachineConfig mc = cfg.machine;
  mc.nranks = cfg.nranks;
  mc.ranks_per_node = cfg.ranks_per_node;
  mc.engine_shards = engine_shards;
  mc.abort_on_deadlock = false;  // a failed column reports "fail", not abort
  auto proto = std::make_unique<core::SpbcProtocol>(cfg.spbc);
  core::SpbcProtocol* spbc = proto.get();
  mpi::Machine m(mc, std::move(proto));
  m.set_cluster_of(cluster_of);

  const apps::AppInfo& info = apps::find_app(cfg.app);
  apps::AppConfig acfg = cfg.app_cfg;
  m.launch([&info, acfg](mpi::Rank& r) { info.main(r, acfg); });

  for (const FailureEvent& f : sched.failures) m.inject_failure(f.at, f.victim);
  for (const auto& [at, salt] : sched.silent_losses) {
    const uint64_t s = salt;
    m.engine().at_serial(
        at, [spbc, s] { spbc->staging_mut().corrupt_one_fragment(s); });
  }

  mpi::RunResult res = m.run();
  Outcome out;
  out.ok = res.completed;
  if (!out.ok) return out;
  out.finish = res.finish_time;
  out.lost_work = static_cast<double>(cfg.nranks) * (res.finish_time - t_base);
  out.checkpoints = spbc->checkpoints_taken();
  const ckpt::StagingStats& st = spbc->staging().stats();
  out.pfs_restores = st.restores_by_level[2];
  out.epoch_fallbacks = st.epoch_fallbacks;
  out.silent_injected = st.silent_losses_injected;
  out.scrubs_detected = st.scrubs_detected;
  out.scrubs_repaired = st.scrubs_repaired;
  out.corrupt_live = spbc->staging().corrupt_live_fragments();
  out.escalations = spbc->control_plane().stats().escalations;
  if (std::getenv("SPBC_CONTROL_DEBUG")) {
    const core::ControlPlaneStats cs = spbc->control_plane().stats();
    std::printf(
        "[dbg] finish=%.4f ckpts=%llu restores L=%llu P=%llu F=%llu "
        "rebuilds=%llu fallbacks=%llu reprot=%llu retries=%llu aborted=%llu | "
        "ctrl fail=%llu dbl=%llu mtbf=%.4f smtbf=%.4f T=%.5f red=%llu "
        "pfs=%llu\n",
        out.finish, (unsigned long long)out.checkpoints,
        (unsigned long long)st.restores_by_level[0],
        (unsigned long long)st.restores_by_level[1],
        (unsigned long long)st.restores_by_level[2],
        (unsigned long long)st.rebuild_restores,
        (unsigned long long)st.epoch_fallbacks,
        (unsigned long long)st.reprotections,
        (unsigned long long)st.retries_exhausted,
        (unsigned long long)st.drains_aborted, (unsigned long long)cs.failures,
        (unsigned long long)cs.double_losses, cs.observed_mtbf,
        cs.observed_storage_mtbf, cs.local_interval,
        (unsigned long long)cs.redundancy_stride,
        (unsigned long long)cs.pfs_stride);
  }
  return out;
}

/// The drifting storm: Poisson singles at MTBF_calm over the calm phase,
/// then MTBF_calm / drift over the storm phase, with every third storm
/// arrival widened into a correlated double loss — the first pairs span XOR
/// groups (they trigger escalation without defeating single parity), later
/// pairs land INSIDE one XOR group (the class only the escalated RS scheme
/// absorbs; included only when escalation is armed, they are its ablation).
Schedule make_schedule(const harness::ScenarioConfig& cfg,
                       const std::vector<int>& cluster_of, sim::Time t_base,
                       const bench::BenchOpts& o, sim::Time pair_gap) {
  // XOR group structure, queried from the scheme itself on a throwaway
  // machine so the bench never hardcodes the group-dealing rule.
  mpi::MachineConfig mc = cfg.machine;
  mc.nranks = cfg.nranks;
  mc.ranks_per_node = cfg.ranks_per_node;
  mpi::Machine probe(mc, std::make_unique<core::SpbcProtocol>(cfg.spbc));
  probe.set_cluster_of(cluster_of);
  ckpt::RedundancyConfig xor_cfg;
  xor_cfg.kind = ckpt::SchemeKind::kXorGroup;
  xor_cfg.group_size = o.group_size;
  std::unique_ptr<ckpt::RedundancyScheme> xorg =
      ckpt::RedundancyScheme::make(xor_cfg, probe);

  auto in_group = [&](int a, int b) {
    const std::vector<int> g = xorg->group_of(a);
    return std::find(g.begin(), g.end(), b) != g.end();
  };
  auto pair_for = [&](int a, bool same_group) -> int {
    for (int b = 0; b < cfg.nranks; ++b) {
      if (probe.topology().node_of(b) == probe.topology().node_of(a)) continue;
      if (in_group(a, b) == same_group) return b;
    }
    return -1;  // degenerate topology (single group): no such partner
  };

  Schedule sched;
  util::Pcg32 rng(cfg.machine.seed, 0xc7a1);
  const double mtbf_calm = 1.5 * t_base;
  const double mtbf_storm = mtbf_calm / std::max(o.mtbf_drift, 1.0);
  const sim::Time storm_from = 0.45 * t_base;
  const sim::Time last_at = 0.85 * t_base;
  sim::Time t = 0.10 * t_base;
  int arrivals = 0;
  while (true) {
    const double u = (rng.next_u32() + 0.5) / 4294967296.0;
    const double mtbf = t < storm_from ? mtbf_calm : mtbf_storm;
    t += -mtbf * std::log(1.0 - u);
    if (t > last_at) break;
    const int victim =
        static_cast<int>(rng.next_bounded(static_cast<uint32_t>(cfg.nranks)));
    sched.failures.push_back({t, victim});
    const bool in_storm = t >= storm_from;
    if (in_storm && ++arrivals % 2 == 0) {
      // Correlated double: cross-group while the controller is still
      // gathering evidence, same-group once escalation (if armed) has had
      // two cross-group pairs to trip on.
      const bool same_group = o.escalate && sched.doubles >= 2;
      const int partner = pair_for(victim, same_group);
      if (partner >= 0) {
        sched.failures.push_back({t + pair_gap, partner});
        ++sched.doubles;
      }
    }
    // Room for detection + restart before the next arrival.
    t += probe.config().failure_detection_delay + probe.config().restart_delay;
  }
  // Silent fragment corruptions: calm-phase losses a scrub must find before
  // the storm's restores go looking for the fragments.
  sched.silent_losses = {{0.30 * t_base, rng.next_u64()},
                         {0.42 * t_base, rng.next_u64()}};
  return sched;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOpts o = bench::parse_opts(argc, argv);
  bench::print_header("Ablation: self-tuning control plane vs static schedules",
                      o);

  const int nodes = o.ranks / o.ppn;
  const int k = std::min(8, nodes);
  const std::string app = "MiniGhost";

  harness::ScenarioConfig base =
      bench::make_config(o, app, k, harness::ProtocolKind::kSpbc);
  base.spbc.storage = ckpt::StorageLevel::kPfs;
  base.spbc.async_staging = true;
  base.spbc.redundancy.kind = ckpt::SchemeKind::kXorGroup;
  // A storage model where scheduling decisions carry real cost: a LOCAL
  // write the app actually waits for (serialization + device latency), and
  // a PFS whose per-process bandwidth share lags far behind the burst rate —
  // the regime the multi-level staging literature targets. With the seed
  // model's near-free writes every schedule collapses to "checkpoint at
  // every opportunity" and there is nothing to tune.
  base.spbc.storage_model.local_latency = 5e-3;
  base.spbc.storage_model.pfs_bw = 5e6;
  // Real per-process state: the synthetic apps carry token state vectors, so
  // without the pad every staging level is free and no schedule can
  // differentiate (see SpbcConfig::snapshot_pad_bytes).
  base.spbc.snapshot_pad_bytes = 1 << 20;
  const std::vector<int> cluster_of = harness::compute_cluster_map(base);

  // t_base: checkpoint-free failure-free time — the lost-work zero point.
  harness::ScenarioConfig base_free = base;
  base_free.spbc.checkpoint_every = 0;
  base_free.spbc.storage = ckpt::StorageLevel::kNone;
  Outcome baseline = run_one(base_free, cluster_of, Schedule{}, 0, o.shards);
  if (!baseline.ok) {
    std::printf("baseline run failed\n");
    return 1;
  }
  const sim::Time t_base = baseline.finish;

  const sim::Time pair_gap = 0.004 * t_base;
  const Schedule sched = make_schedule(base, cluster_of, t_base, o, pair_gap);
  std::printf(
      "workload: %s, %d ranks, t_base %.3fs; storm: %zu failures "
      "(%d correlated doubles), %zu silent losses, drift %.1fx\n\n",
      app.c_str(), o.ranks, t_base, sched.failures.size(), sched.doubles,
      sched.silent_losses.size(), o.mtbf_drift);

  util::Table table({"Config", "Scheme", "Interval", "Finish", "Lost work",
                     "Ckpts", "PFS restores", "Fallbacks", "Scrub d/r",
                     "Esc"});
  auto add_row = [&](const std::string& name, const std::string& scheme,
                     const std::string& interval, const Outcome& out) {
    table.add_row(
        {name, scheme, interval, out.ok ? util::Table::fmt(out.finish, 4) : "fail",
         out.ok ? util::Table::fmt(out.lost_work, 2) : "fail",
         std::to_string(out.checkpoints), std::to_string(out.pfs_restores),
         std::to_string(out.epoch_fallbacks),
         std::to_string(out.scrubs_detected) + "/" +
             std::to_string(out.scrubs_repaired),
         std::to_string(out.escalations)});
  };

  // Static arms: full-depth staging every epoch, no controller, no scrub.
  std::vector<Outcome> statics;
  for (ckpt::SchemeKind kind :
       {ckpt::SchemeKind::kXorGroup, ckpt::SchemeKind::kReedSolomon}) {
    for (int every : {1, 2, 4}) {
      harness::ScenarioConfig cfg = base;
      cfg.spbc.redundancy.kind = kind;
      cfg.spbc.checkpoint_every = static_cast<uint64_t>(every);
      Outcome out = run_one(cfg, cluster_of, sched, t_base, o.shards);
      add_row("static", ckpt::scheme_name(kind), std::to_string(every), out);
      statics.push_back(out);
    }
  }

  // The controller arm: observed-MTBF pacing, scrub, optional escalation.
  harness::ScenarioConfig ctrl = base;
  ctrl.spbc.checkpoint_every = 0;  // the time-based trigger owns the cadence
  ctrl.spbc.control.enabled = true;
  // Pessimistic cold-start priors: checkpoint soon until the observed rate
  // proves the machine calm (an optimistic prior would leave the whole
  // cold-start window unprotected).
  ctrl.spbc.control.prior_mtbf = 0.05 * t_base;
  ctrl.spbc.control.prior_storage_mtbf = 0.05 * t_base;
  ctrl.spbc.control.prior_double_mtbf = t_base;
  ctrl.spbc.control.correlation_window = 2.5 * pair_gap;
  ctrl.spbc.control.min_interval = 1e-6 * t_base;
  ctrl.spbc.control.max_interval = t_base;
  ctrl.spbc.control.scrub_period =
      o.scrub_period < 0 ? 0.02 * t_base : o.scrub_period;
  ctrl.spbc.control.escalation = o.escalate;
  ctrl.spbc.control.escalated.kind = ckpt::SchemeKind::kReedSolomon;
  ctrl.spbc.control.escalated.rs_k = o.rs_k;
  ctrl.spbc.control.escalated.rs_m = o.rs_m;
  Outcome controller = run_one(ctrl, cluster_of, sched, t_base, o.shards);
  add_row("controller", o.escalate ? "xor->rs" : "xor", "auto", controller);
  std::printf("%s\n", table.render().c_str());

  // Gate rows (CI greps "^|" for a "fail" token).
  bool beats = controller.ok;
  for (const Outcome& s : statics)
    beats = beats && (!s.ok || controller.lost_work < s.lost_work);
  std::printf("| gate controller-beats-statics: %s\n", beats ? "pass" : "fail");

  const bool scrub_ok = controller.ok && controller.silent_injected > 0 &&
                        controller.scrubs_detected == controller.silent_injected &&
                        controller.scrubs_repaired == controller.silent_injected &&
                        controller.corrupt_live == 0;
  std::printf("| gate scrub-repair: %s (injected=%llu detected=%llu "
              "repaired=%llu still-live=%llu)\n",
              scrub_ok ? "pass" : "fail",
              static_cast<unsigned long long>(controller.silent_injected),
              static_cast<unsigned long long>(controller.scrubs_detected),
              static_cast<unsigned long long>(controller.scrubs_repaired),
              static_cast<unsigned long long>(controller.corrupt_live));

  // Bit-identity across execution layouts: one event queue (the default)
  // vs one per cluster. Threads stay 1: the controller arm places
  // cross-node fragments, which the threaded executor's exactness claim
  // excludes (DESIGN.md §12).
  Outcome det_a = run_one(ctrl, cluster_of, sched, t_base, /*shards=*/1);
  Outcome det_b = run_one(ctrl, cluster_of, sched, t_base, /*shards=*/0);
  const bool det_ok = det_a.ok && det_b.ok && det_a.finish == det_b.finish &&
                      det_a.checkpoints == det_b.checkpoints;
  std::printf("| gate determinism: %s (shards=1 finish %.9g vs "
              "shards=per-cluster finish %.9g)\n",
              det_ok ? "pass" : "fail", det_a.finish, det_b.finish);

  return beats && scrub_ok && det_ok ? 0 : 1;
}
