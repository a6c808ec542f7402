// Ablation: asynchronous multi-level checkpoint staging (LOCAL -> PARTNER ->
// PFS) vs synchronous writes, at equal checkpoint interval.
//
// The paper measures checkpointing with free I/O (Section 6.1); this
// ablation turns the cost model on and asks what the write path itself
// costs. Part 1 (failure-free): each storage mode's overhead over the
// no-I/O baseline — async staging must charge the fiber only the LOCAL
// write, so its overhead sits far below a synchronous PFS write of the same
// snapshots. Part 2 (Poisson failures): efficiency of sync-PFS vs async
// staging, plus which level served each restore (LOCAL dies with the failed
// nodes, so PARTNER carries most restores; epoch fallbacks count recoveries
// where a drain-in-progress epoch was lost and an older flushed epoch was
// used). Overhead counts until the application ends; the drain tail column
// shows how long the engine ran on after that (the last epoch's background
// PFS flushes, and the last commit's control messages), the window in which
// the newest epoch is not yet at its target level.

#include "bench_common.hpp"

using namespace spbc;

namespace {

harness::ScenarioConfig mode_config(const harness::ScenarioConfig& base,
                                    ckpt::StorageLevel level, bool async) {
  harness::ScenarioConfig cfg = base;
  cfg.spbc.storage = level;
  cfg.spbc.async_staging = async;
  return cfg;
}

struct FailOutcome {
  bool ok = false;
  double efficiency = 0;
  int failures = 0;
  ckpt::StagingStats staging;
};

FailOutcome run_with_failures(harness::ScenarioConfig cfg, sim::Time t_ff,
                              double mtbf, uint64_t seed) {
  cfg.machine.abort_on_deadlock = false;  // a failed row reports "fail", not abort
  cfg.extra_failures = bench::poisson_failures(cfg, t_ff, mtbf, seed, 0x57a6);
  harness::ScenarioResult res = harness::run_scenario(cfg);
  FailOutcome out;
  out.ok = res.run.completed;
  out.failures = static_cast<int>(cfg.extra_failures.size());
  if (out.ok) out.efficiency = t_ff / res.elapsed;
  out.staging = res.staging;
  return out;
}

std::string kb(uint64_t bytes) { return util::Table::fmt(bytes / 1.0e3, 2); }

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchOpts o = bench::parse_opts(
      cli, bench::kScheme | bench::kRedundancy | bench::kEngine);
  cli.reject_unknown();
  bench::print_header("Ablation: multi-level checkpoint staging", o);

  int nodes = o.ranks / o.ppn;
  int k = std::min(8, nodes);
  const std::string app = "MiniGhost";

  harness::ScenarioConfig base =
      bench::make_config(o, app, k, harness::ProtocolKind::kSpbc);

  // ---- Part 1: failure-free write-path overhead ------------------------
  harness::ScenarioResult none =
      harness::run_failure_free(mode_config(base, ckpt::StorageLevel::kNone, false));
  if (!none.run.completed) {
    std::printf("baseline (no-I/O) run failed\n");
    return 1;
  }
  struct Mode {
    const char* name;
    ckpt::StorageLevel level;
    bool async;
  };
  const Mode modes[] = {
      {"sync-LOCAL", ckpt::StorageLevel::kLocal, false},
      {"sync-PFS", ckpt::StorageLevel::kPfs, false},
      {"async L/P/F", ckpt::StorageLevel::kPfs, true},
  };
  util::Table ff({"Mode", "elapsed (s)", "overhead %", "ckpts", "PFS flushes",
                  "drain tail (ms)"});
  // Engine end minus app end: what runs on after the application returned.
  auto drain_tail_ms = [](const harness::ScenarioResult& r) {
    return util::Table::fmt((r.run.finish_time - r.elapsed) * 1e3, 3);
  };
  ff.add_row({"no-I/O", util::Table::fmt(none.elapsed, 4), "0.000",
              std::to_string(none.checkpoints), "-", drain_tail_ms(none)});
  double sync_pfs_ovh = 0, async_ovh = 0;
  bool sync_pfs_ok = false, async_ok = false;
  for (const Mode& mode : modes) {
    harness::ScenarioResult r =
        harness::run_failure_free(mode_config(base, mode.level, mode.async));
    if (!r.run.completed) {
      ff.add_row({mode.name, "fail", "-", "-", "-", "-"});
      continue;
    }
    double ovh = (r.elapsed - none.elapsed) / none.elapsed * 100.0;
    if (std::string(mode.name) == "sync-PFS") {
      sync_pfs_ovh = ovh;
      sync_pfs_ok = true;
    }
    if (mode.async) {
      async_ovh = ovh;
      async_ok = true;
    }
    ff.add_row({mode.name, util::Table::fmt(r.elapsed, 4), util::Table::fmt(ovh, 3),
                std::to_string(r.checkpoints),
                std::to_string(r.staging.pfs_flushes), drain_tail_ms(r)});
  }
  const bool async_wins = sync_pfs_ok && async_ok && async_ovh < sync_pfs_ovh;
  std::printf("%s\n", ff.render().c_str());
  if (sync_pfs_ok && async_ok) {
    std::printf("async staging %s sync-PFS at equal interval (%.3f%% vs %.3f%%)\n\n",
                async_wins ? "beats" : "DOES NOT BEAT", async_ovh, sync_pfs_ovh);
  } else {
    std::printf("async staging comparison unavailable: a mode run failed\n\n");
  }

  // ---- Part 2: recovery under failures, per-level restore counts -------
  util::Table rec({"MTBF (frac)", "Failures", "sync-PFS eff.", "async eff.",
                   "restores L/P/F/R", "epoch fallbacks", "drains aborted"});
  harness::ScenarioConfig sync_cfg =
      mode_config(base, ckpt::StorageLevel::kPfs, false);
  harness::ScenarioConfig async_cfg =
      mode_config(base, ckpt::StorageLevel::kPfs, true);
  for (double frac : {1.0, 0.5, 0.25}) {
    double mtbf = none.elapsed * frac;
    FailOutcome sync_out =
        run_with_failures(sync_cfg, none.elapsed, mtbf, o.seed);
    FailOutcome async_out =
        run_with_failures(async_cfg, none.elapsed, mtbf, o.seed);
    const auto& st = async_out.staging;
    rec.add_row(
        {util::Table::fmt(frac, 3), std::to_string(async_out.failures),
         sync_out.ok ? util::Table::fmt(sync_out.efficiency, 3) : "fail",
         async_out.ok ? util::Table::fmt(async_out.efficiency, 3) : "fail",
         std::to_string(st.restores_by_level[0]) + "/" +
             std::to_string(st.restores_by_level[1]) + "/" +
             std::to_string(st.restores_by_level[2]) + "/" +
             std::to_string(st.rebuild_restores),
         std::to_string(st.epoch_fallbacks),
         std::to_string(st.drains_aborted)});
  }
  std::printf("%s\n", rec.render().c_str());
  std::printf(
      "(LOCAL copies die with the failed nodes, so restores come from the\n"
      " buddy node (P), an XOR group rebuild (R), or, when a drain was still\n"
      " in flight, an older epoch on the PFS (F; counted as an epoch\n"
      " fallback). Async staging hides the PFS latency from the failure-free\n"
      " path without giving up multi-level recoverability.)\n\n");

  // ---- Part 3: redundancy schemes — write bytes vs failure coverage ----
  // Same snapshots, four redundancy shapes. The PFS is slowed so the
  // retention floor lags: recovery must come out of the redundancy layer,
  // which is exactly the coverage each scheme is paid to provide. A single
  // deterministic node-loss (one cluster, past the first commit) probes the
  // restore source for SINGLE/PARTNER/XOR; the RS row kills a *second*
  // in-group node right behind the first — the multi-loss pattern only
  // RS(k, m >= 2) can serve without the PFS. Redundancy bytes count what
  // each scheme landed on remote storage per failure-free run (full copies
  // for PARTNER, parity for XOR/RS); rebuild KB counts the network bytes
  // the failure run's rebuilds actually streamed.
  // Both kills of the double-loss probe key off the same failure point so
  // the second one always lands right behind the first.
  constexpr double kFailFrac = 0.8;
  struct SchemeMode {
    const char* name;
    ckpt::RedundancyConfig red;
    int losses;  // in-group node losses the failure probe injects
  };
  const SchemeMode schemes[] = {
      {"single", {ckpt::SchemeKind::kSingle}, 1},
      {"partner", {ckpt::SchemeKind::kPartner}, 1},
      {"xor", bench::xor_scheme(o), 1},
      {"rs", bench::rs_scheme(o), 2},
  };
  util::Table st3({"Scheme", "losses", "redundancy KB", "wire KB L/P/F",
                   "overhead %", "restores L/P/F", "rebuilds", "rebuild KB",
                   "epoch fallbacks", "reprotections"});
  std::map<std::string, uint64_t> red_bytes;
  std::map<std::string, ckpt::StagingStats> fail_stats;
  std::map<std::string, bool> fail_ok;
  for (const SchemeMode& s : schemes) {
    harness::ScenarioConfig cfg =
        mode_config(base, ckpt::StorageLevel::kPfs, true);
    cfg.spbc.redundancy = s.red;
    cfg.spbc.storage_model.pfs_bw = 2.0e6;  // floors lag; locals persist
    harness::ScenarioResult ff3 = harness::run_failure_free(cfg);
    if (!ff3.run.completed) {
      st3.add_row({s.name, "-", "fail", "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    red_bytes[s.name] =
        ff3.staging.bytes_to_partner + ff3.staging.bytes_to_parity;
    if (s.losses > 1) {
      // The second victim must share the FIRST victim's redundancy group,
      // or the "double in-group loss" probe silently degrades to two
      // independent single losses once the machine holds more than one
      // group. Query the scheme's actual mapping on a throwaway machine
      // with the run's cluster map.
      mpi::MachineConfig probe_mc = cfg.machine;
      probe_mc.nranks = cfg.nranks;
      probe_mc.ranks_per_node = cfg.ranks_per_node;
      auto probe_proto = std::make_unique<core::SpbcProtocol>(cfg.spbc);
      mpi::Machine probe(probe_mc, std::move(probe_proto));
      probe.set_cluster_of(harness::compute_cluster_map(cfg));
      std::unique_ptr<ckpt::RedundancyScheme> scheme =
          ckpt::RedundancyScheme::make(cfg.spbc.redundancy, probe);
      const std::vector<int> group = scheme->group_of(cfg.victim_rank);
      if (group.empty()) {
        st3.add_row(
            {s.name, "-", "no group", "-", "-", "-", "-", "-", "-", "-"});
        continue;
      }
      cfg.extra_failures.push_back(
          {none.elapsed * kFailFrac + 1e-4, group.front()});
    }
    harness::ScenarioResult fr =
        harness::run_with_failure(cfg, none.elapsed, kFailFrac);
    const ckpt::StagingStats& fs = fr.staging;
    fail_stats[s.name] = fs;
    fail_ok[s.name] = fr.run.completed;
    const double ovh = (ff3.elapsed - none.elapsed) / none.elapsed * 100.0;
    st3.add_row(
        {s.name, std::to_string(s.losses), kb(red_bytes[s.name]),
         // Bytes-on-wire per level in the failure-free run: LOCAL device
         // writes, PARTNER traffic (copies + parity), PFS ingest.
         kb(ff3.staging.bytes_to_local) + "/" +
             kb(ff3.staging.bytes_to_partner + ff3.staging.bytes_to_parity) +
             "/" + kb(ff3.staging.bytes_to_pfs),
         util::Table::fmt(ovh, 3),
         fr.run.completed
             ? std::to_string(fs.restores_by_level[0]) + "/" +
                   std::to_string(fs.restores_by_level[1]) + "/" +
                   std::to_string(fs.restores_by_level[2])
             : "fail",
         std::to_string(fs.rebuild_restores), kb(fs.rebuild_bytes_read),
         std::to_string(fs.epoch_fallbacks), std::to_string(fs.reprotections)});
  }
  std::printf("%s\n", st3.render().c_str());
  bool scheme_gates_ok = true;
  if (o.scheme == "xor") {
    // CI gates: XOR must land at most half the PARTNER copy bytes and must
    // recover a single in-group node loss without touching the PFS.
    const ckpt::StagingStats& xs = fail_stats["xor"];
    const bool bytes_ok =
        red_bytes.count("xor") && red_bytes.count("partner") &&
        red_bytes["xor"] * 2 <= red_bytes["partner"];
    const bool xor_ok = fail_ok["xor"];
    const bool xor_no_pfs_restore = xs.restores_by_level[2] == 0;
    const bool xor_rebuilt = xs.rebuild_restores > 0;
    scheme_gates_ok = bytes_ok && xor_ok && xor_no_pfs_restore && xor_rebuilt;
    std::printf(
        "xor gates: write bytes %.2fx partner (need <= 0.5) %s; single node "
        "loss %s without a PFS read (%s)\n",
        red_bytes.count("partner") && red_bytes["partner"] > 0
            ? static_cast<double>(red_bytes["xor"]) /
                  static_cast<double>(red_bytes["partner"])
            : 0.0,
        bytes_ok ? "OK" : "FAIL",
        xor_ok && xor_rebuilt ? "rebuilt" : "DID NOT rebuild",
        xor_no_pfs_restore ? "OK" : "FAIL");
    // Regression pin: at the canonical CI configuration the XOR row's
    // numbers are deterministic — any drift in redundancy bytes, restore
    // sources, or rebuild count is a behavior change that must be looked
    // at, not absorbed.
    const bool canonical = o.ranks == 32 && o.ppn == 8 && o.iters == 3 &&
                           o.ckpt_every == 2 && o.seed == 1 &&
                           o.msg_scale == 1.0 && o.compute_scale == 1.0 &&
                           o.group_size == 4;
    if (canonical) {
      const uint64_t kPinnedXorBytes = 7560;   // 0.33x the partner copy bytes
      const uint64_t kPinnedXorRebuilds = 8;   // one per rank of the cluster
      const bool pin_ok = red_bytes["xor"] == kPinnedXorBytes &&
                          xs.rebuild_restores == kPinnedXorRebuilds &&
                          xs.restores_by_level[0] == 0 &&
                          xs.restores_by_level[1] == 0 &&
                          xs.restores_by_level[2] == 0;
      scheme_gates_ok = scheme_gates_ok && pin_ok;
      std::printf(
          "xor pin (canonical config): redundancy %llu B (pin %llu), "
          "rebuilds %llu (pin %llu), restores %llu/%llu/%llu (pin 0/0/0) %s\n",
          static_cast<unsigned long long>(red_bytes["xor"]),
          static_cast<unsigned long long>(kPinnedXorBytes),
          static_cast<unsigned long long>(xs.rebuild_restores),
          static_cast<unsigned long long>(kPinnedXorRebuilds),
          static_cast<unsigned long long>(xs.restores_by_level[0]),
          static_cast<unsigned long long>(xs.restores_by_level[1]),
          static_cast<unsigned long long>(xs.restores_by_level[2]),
          pin_ok ? "OK" : "FAIL");
    }
  }
  if (o.scheme == "rs") {
    // CI gates: RS(k, m) must land at most 0.55x the PARTNER copy bytes
    // (the (m/k) = 0.5 parity overhead plus per-share ceil slack) and must
    // recover a *double* in-group node loss entirely out of the redundancy
    // layer — rebuilds for both lost nodes, zero PFS restores.
    const ckpt::StagingStats& rs = fail_stats["rs"];
    const bool bytes_ok =
        red_bytes.count("rs") && red_bytes.count("partner") &&
        static_cast<double>(red_bytes["rs"]) <=
            0.55 * static_cast<double>(red_bytes["partner"]);
    const bool rs_ok = fail_ok["rs"];
    const bool rs_no_pfs_restore = rs.restores_by_level[2] == 0;
    const bool rs_rebuilt = rs.rebuild_restores >= 2;
    scheme_gates_ok =
        scheme_gates_ok && bytes_ok && rs_ok && rs_no_pfs_restore && rs_rebuilt;
    std::printf(
        "rs gates: write bytes %.2fx partner (need <= 0.55) %s; double node "
        "loss %s without a PFS read (%s); rebuilds=%llu rebuild KB=%s\n",
        red_bytes.count("partner") && red_bytes["partner"] > 0
            ? static_cast<double>(red_bytes["rs"]) /
                  static_cast<double>(red_bytes["partner"])
            : 0.0,
        bytes_ok ? "OK" : "FAIL",
        rs_ok && rs_rebuilt ? "rebuilt" : "DID NOT rebuild",
        rs_no_pfs_restore ? "OK" : "FAIL",
        static_cast<unsigned long long>(rs.rebuild_restores),
        kb(rs.rebuild_bytes_read).c_str());
  }
  return (async_wins && scheme_gates_ok) ? 0 : 1;
}
