// spbc_bench: the repository benchmark. One process runs one workload with
// one engine thread, repeating whole passes of it for --seconds, and reports
// end-to-end metrics (untraced) or per-layer metrics (--trace=PATH).
//
//   spbc_bench --workload=NAME [--seed=N] [--seconds=S] [--json=PATH]
//              [--trace=PATH]
//
// Workloads (README.md gives the reasons and the layer-to-metric map):
//   ff-logging  six paper apps, native vs SPBC at 16 clusters, no checkpoints
//   ckpt-write  MiniGhost, a checkpoint every iteration through async
//               LOCAL->PARTNER->PFS staging, RS(4,2), delta + LZ reduction
//   recovery    Fig. 5's 16-cluster column plus seeded Poisson failure storms
//   scale-4k    4,096 ranks on the sharded engine, failure-free and 2 failures
//
// A pass is one complete execution of the workload: set-up (the cluster maps
// of its configurations, i.e. the traced run plus the partitioner) followed
// by every machine run. Virtual-time results are a pure function of the seed,
// so every pass must reproduce them exactly; that is checked, as are run
// completion, recovery completion and, where the apps carry real payloads,
// checksum identity with the failure-free run. The driver drives
// mpi::Machine directly so each cluster map is computed once per pass and
// every layer's counters can be read through public accessors.
//
// Output: `name value unit` lines on stdout, the same metrics as JSON with
// --json, and a Chrome trace-event file with --trace. Exit code 1 when a
// correctness check fails, 2 on a usage error.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <source_location>
#include <string>
#include <vector>

#include "bench_metrics.hpp"
#include "baselines/presets.hpp"
#include "ckpt/reduction.hpp"
#include "ckpt/store.hpp"
#include "core/sender_log.hpp"
#include "core/spbc.hpp"
#include "harness/scenario.hpp"
#include "mpi/matching.hpp"
#include "sim/engine.hpp"
#include "trace/profile.hpp"
#include "util/cli.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

using namespace spbc;
using benchm::Metrics;
using benchm::Spans;

namespace {

const std::vector<std::string>& paper_apps() {
  static const std::vector<std::string> apps = {"AMG",  "CM1",    "GTC",
                                                "MILC", "MiniFE", "MiniGhost"};
  return apps;
}

// ---- configurations --------------------------------------------------------

/// The experiment benches' configuration at their defaults (8 ranks per
/// node, OS noise 8 %, network jitter 20 %, tool clustering), so ff-logging
/// and recovery (a) simulate exactly what table2_ff_overhead and
/// fig5_recovery simulate.
harness::ScenarioConfig make_cfg(const std::string& app, int ranks,
                                 int nclusters, harness::ProtocolKind protocol,
                                 int iters, uint64_t seed) {
  harness::ScenarioConfig cfg;
  cfg.app = app;
  cfg.nranks = ranks;
  cfg.ranks_per_node = 8;
  cfg.nclusters = nclusters;
  cfg.protocol = protocol;
  cfg.app_cfg.iters = iters;
  cfg.machine.seed = seed;
  cfg.machine.compute_noise_frac = 0.08;
  cfg.machine.net.jitter_frac = 0.20;
  cfg.machine.net.jitter_seed = seed;
  // A deadlock ends the run as "not completed" (a failed operation) instead
  // of aborting the process.
  cfg.machine.abort_on_deadlock = false;
  return cfg;
}

/// Async LOCAL -> PARTNER -> PFS staging with RS(4,2) redundancy, 1 KiB
/// delta blocks plus LZ compression, over an evolving per-rank state of
/// `state_bytes` that mutates 10 % of its blocks per epoch.
void add_staging(harness::ScenarioConfig& cfg, uint64_t state_bytes,
                 uint64_t seed) {
  cfg.spbc.storage = ckpt::StorageLevel::kPfs;
  cfg.spbc.async_staging = true;
  cfg.spbc.redundancy.kind = ckpt::SchemeKind::kReedSolomon;
  cfg.spbc.redundancy.rs_k = 4;
  cfg.spbc.redundancy.rs_m = 2;
  cfg.spbc.reduction.delta = true;
  cfg.spbc.reduction.block_bytes = 1024;
  cfg.spbc.reduction.compress = true;
  cfg.spbc.state_model.bytes = state_bytes;
  cfg.spbc.state_model.block_bytes = 1024;
  cfg.spbc.state_model.mutation_rate = 0.10;
  cfg.spbc.state_model.seed = seed;
}

// Per-rank evolving state of the staged workloads (ckpt-write, recovery's
// storms); the store and codec probes use the same shapes.
constexpr uint64_t kCkptStateBytes = 128 * 1024;
constexpr uint64_t kStormStateBytes = 64 * 1024;

// ---- one machine run -------------------------------------------------------

struct Failure {
  sim::Time at;
  int victim;
};

/// Everything one Machine::run reports through public accessors.
struct RunOut {
  bool completed = false;
  sim::Time vt = 0;  // virtual finish time
  uint64_t events = 0;
  uint64_t peak_stacks = 0;
  trace::MachineProfile prof;
  uint64_t suppressed = 0;
  uint64_t dup_drops = 0;
  std::vector<mpi::RecoveryRecord> recoveries;
  std::map<int, uint64_t> checksums;  // validate mode only
  // SPBC only.
  bool spbc = false;
  double log_rate_mb_s = 0;  // mean over ranks of logged MB per virtual s
  uint64_t log_msgs = 0;
  uint64_t log_bytes = 0;
  uint64_t log_retained_hwm = 0;
  uint64_t checkpoints = 0;
  uint64_t capture_hwm = 0;
  uint64_t raw = 0;
  uint64_t stored = 0;
  uint64_t deltas = 0;
  ckpt::StagingStats staging;
};

/// Builds the machine exactly as harness::run_scenario does (minus the
/// hostile matrix, which no workload uses), with a precomputed cluster map.
RunOut run_machine(const harness::ScenarioConfig& cfg,
                   const std::vector<int>& cluster_of,
                   const std::vector<Failure>& failures, Spans& spans,
                   const char* label) {
  Spans::Scope scope(spans, label);
  mpi::MachineConfig mc = cfg.machine;
  mc.nranks = cfg.nranks;
  mc.ranks_per_node = cfg.ranks_per_node;
  std::unique_ptr<mpi::ProtocolHooks> proto;
  if (cfg.protocol == harness::ProtocolKind::kNative)
    proto = baselines::make_native();
  else
    proto = std::make_unique<core::SpbcProtocol>(cfg.spbc);
  mpi::Machine m(mc, std::move(proto));
  m.set_cluster_of(cluster_of);

  const apps::AppInfo& info = apps::find_app(cfg.app);
  std::map<int, uint64_t> checksums;
  apps::AppConfig acfg = cfg.app_cfg;
  if (acfg.validate) acfg.checksums = &checksums;
  m.launch([&info, acfg](mpi::Rank& r) { info.main(r, acfg); });
  for (const Failure& f : failures) m.inject_failure(f.at, f.victim);

  RunOut out;
  const int sid = spans.begin(std::string(label) + ".machine");
  const mpi::RunResult rr = m.run();
  spans.end(sid);
  out.completed = rr.completed;
  out.vt = rr.finish_time;
  out.checksums = std::move(checksums);
  const sim::Engine::Stats es = m.engine().stats();
  out.events = es.events + es.serial_events;
  out.peak_stacks = es.peak_live_stacks;
  out.prof = trace::profile_machine(m);
  out.recoveries = m.recoveries();
  double rate_sum = 0;
  for (int r = 0; r < cfg.nranks; ++r) {
    const mpi::RankProfile& p = m.rank(r).profile();
    out.suppressed += p.suppressed_sends;
    out.dup_drops += p.duplicate_drops;
    if (out.vt > 0) rate_sum += static_cast<double>(p.bytes_logged) / 1.0e6 / out.vt;
  }
  if (auto* sp = dynamic_cast<core::SpbcProtocol*>(&m.protocol())) {
    out.spbc = true;
    out.log_rate_mb_s = rate_sum / cfg.nranks;
    for (int r = 0; r < cfg.nranks; ++r) {
      const core::SenderLog& log = sp->log_of(r);
      out.log_msgs += log.messages_appended();
      out.log_bytes += log.bytes_appended();
      out.log_retained_hwm = std::max(out.log_retained_hwm, log.bytes_retained_hwm());
    }
    out.checkpoints = sp->checkpoints_taken();
    out.capture_hwm = sp->store().capture_hwm_bytes();
    out.raw = sp->store().total_raw_bytes();
    out.stored = sp->store().total_bytes_written();
    out.deltas = sp->store().delta_snapshots();
    out.staging = sp->staging().stats();
  }
  return out;
}

// ---- one pass --------------------------------------------------------------

/// Operations attempted and failed: machine runs, set-ups, result checks
/// (checksums, counters, determinism) and probe round-trips.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Counts one operation; a failed one is named on stderr by its line.
  bool check(bool ok, std::source_location at = std::source_location::current()) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "spbc_bench: check failed at line %u\n",
                   static_cast<unsigned>(at.line()));
    }
    return ok;
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(idx, 1)) - 1];
}

/// Accumulates one pass: run counters summed over its machine runs, the
/// recovery samples, and the operations attempted and failed.
struct Pass : Checks {
  Spans& spans;
  double setup_s = 0;
  Metrics vt;  // workload-level virtual-time results (deterministic)

  uint64_t runs = 0;
  uint64_t events = 0;
  uint64_t peak_stacks = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  double comm_ratio_sum = 0;
  double inter_bytes = 0;
  double spbc_bytes = 0;
  double log_rate_sum = 0;
  uint64_t spbc_runs = 0;
  uint64_t log_msgs = 0;
  uint64_t log_bytes = 0;
  double log_max_rank_mb = 0;
  uint64_t log_retained_hwm = 0;
  uint64_t checkpoints = 0;
  uint64_t capture_hwm = 0;
  uint64_t raw = 0;
  uint64_t stored = 0;
  uint64_t deltas = 0;
  ckpt::StagingStats st;
  uint64_t suppressed = 0;
  uint64_t dup_drops = 0;
  // Recovery samples of the failure-storm runs (virtual ms).
  std::vector<double> restart_ms, catchup_ms, total_ms;
  uint64_t rank_restarts = 0;
  uint64_t superseded = 0;
  double lost_rank_s = 0;

  explicit Pass(Spans& s) : spans(s) {
    // Headline results a workload does not produce read 0.
    vt.add("vt_overhead_pct", 0, "%");
    vt.add("ckpt_wire_mb", 0, "MB");
    vt.add("rework_ratio", 0, "x");
    vt.add("recovery_p50_ms", 0, "ms");
    vt.add("recovery_p95_ms", 0, "ms");
    vt.add("lost_work_rank_s", 0, "rank-s");
  }

  /// The set-up of one configuration: its cluster map (a short native
  /// traced run plus the partitioner), computed by the harness.
  std::vector<int> setup(const harness::ScenarioConfig& cfg) {
    const double t0 = benchm::now_s();
    std::vector<int> map;
    {
      Spans::Scope scope(spans, "setup");
      map = harness::compute_cluster_map(cfg);
    }
    setup_s += benchm::now_s() - t0;
    check(static_cast<int>(map.size()) == cfg.nranks);
    return map;
  }

  /// One machine run, folded into the pass. Returns its outcome; the run
  /// counts as a failed operation when it did not complete.
  RunOut run(const harness::ScenarioConfig& cfg, const std::vector<int>& map,
             const std::vector<Failure>& failures, const char* label) {
    RunOut o = run_machine(cfg, map, failures, spans, label);
    check(o.completed);
    ++runs;
    events += o.events;
    peak_stacks = std::max<uint64_t>(peak_stacks, o.peak_stacks);
    msgs += o.prof.total_messages;
    bytes += o.prof.total_bytes;
    comm_ratio_sum += o.prof.comm_ratio;
    suppressed += o.suppressed;
    dup_drops += o.dup_drops;
    if (o.spbc) {
      ++spbc_runs;
      spbc_bytes += static_cast<double>(o.prof.total_bytes);
      inter_bytes += o.prof.inter_cluster_share * static_cast<double>(o.prof.total_bytes);
      log_rate_sum += o.log_rate_mb_s;
      log_msgs += o.log_msgs;
      log_bytes += o.log_bytes;
      log_max_rank_mb = std::max(log_max_rank_mb, o.prof.max_rank_logged_mb);
      log_retained_hwm = std::max(log_retained_hwm, o.log_retained_hwm);
      checkpoints += o.checkpoints;
      capture_hwm = std::max(capture_hwm, o.capture_hwm);
      raw += o.raw;
      stored += o.stored;
      deltas += o.deltas;
      add_staging_stats(o.staging);
    }
    return o;
  }

  /// Records the recoveries of a failure-storm run: restarts and lost work
  /// (rank-seconds between the restored checkpoint and the failure, as
  /// ablation_mtbf counts them) for every record, latency samples for the
  /// records that caught up. A record that never caught up was superseded:
  /// another failure hit the cluster mid-recovery and opened a new record
  /// (whether the run recovered at all is checked by completion and
  /// checksums).
  void add_recoveries(const RunOut& o) {
    for (const mpi::RecoveryRecord& rec : o.recoveries) {
      rank_restarts += rec.target_ops.size();
      lost_rank_s += static_cast<double>(rec.target_ops.size()) *
                     (rec.failure_time - rec.checkpoint_time);
      if (!rec.complete()) {
        ++superseded;
        continue;
      }
      restart_ms.push_back((rec.restart_time - rec.failure_time) * 1e3);
      catchup_ms.push_back((rec.caught_up_time - rec.restart_time) * 1e3);
      total_ms.push_back((rec.caught_up_time - rec.failure_time) * 1e3);
    }
  }

  void add_staging_stats(const ckpt::StagingStats& s) {
    st.drains_started += s.drains_started;
    st.pfs_flushes += s.pfs_flushes;
    st.drains_aborted += s.drains_aborted;
    st.hop_retries += s.hop_retries;
    st.bytes_to_local += s.bytes_to_local;
    st.bytes_to_partner += s.bytes_to_partner;
    st.bytes_to_parity += s.bytes_to_parity;
    st.bytes_to_pfs += s.bytes_to_pfs;
    for (size_t i = 0; i < st.restores_by_level.size(); ++i)
      st.restores_by_level[i] += s.restores_by_level[i];
    st.rebuild_restores += s.rebuild_restores;
    st.rebuild_bytes_read += s.rebuild_bytes_read;
    st.epoch_fallbacks += s.epoch_fallbacks;
  }

  /// Per-layer counts (deterministic; identical on every pass).
  void layer_counts(Metrics& m) const {
    const double mb = 1.0e6;
    m.add("sim.events", static_cast<double>(events), "count");
    m.add("sim.peak_live_stacks", static_cast<double>(peak_stacks), "count");
    m.add("mpi.messages", static_cast<double>(msgs), "count");
    m.add("mpi.mb", static_cast<double>(bytes) / mb, "MB");
    m.add("mpi.comm_ratio", runs ? comm_ratio_sum / static_cast<double>(runs) : 0, "frac");
    m.add("mpi.inter_cluster_share", spbc_bytes > 0 ? inter_bytes / spbc_bytes : 0, "frac");
    m.add("log.mb", static_cast<double>(log_bytes) / mb, "MB");
    m.add("log.max_rank_mb", log_max_rank_mb, "MB");
    m.add("log.retained_hwm_mb", static_cast<double>(log_retained_hwm) / mb, "MB");
    m.add("wave.checkpoints", static_cast<double>(checkpoints), "count");
    m.add("wave.capture_hwm_kb", static_cast<double>(capture_hwm) / 1.0e3, "KB");
    m.add("store.raw_mb", static_cast<double>(raw) / mb, "MB");
    m.add("store.stored_mb", static_cast<double>(stored) / mb, "MB");
    m.add("store.reduction_x",
          stored ? static_cast<double>(raw) / static_cast<double>(stored) : 0, "x");
    m.add("store.delta_frac",
          checkpoints ? static_cast<double>(deltas) / static_cast<double>(checkpoints) : 0,
          "frac");
    m.add("staging.local_mb", static_cast<double>(st.bytes_to_local) / mb, "MB");
    m.add("staging.partner_mb",
          static_cast<double>(st.bytes_to_partner + st.bytes_to_parity) / mb, "MB");
    m.add("staging.pfs_mb", static_cast<double>(st.bytes_to_pfs) / mb, "MB");
    m.add("staging.rebuild_read_mb", static_cast<double>(st.rebuild_bytes_read) / mb, "MB");
    m.add("staging.flush_ratio",
          st.drains_started ? static_cast<double>(st.pfs_flushes) /
                                  static_cast<double>(st.drains_started)
                            : 0,
          "frac");
    m.add("staging.drains_aborted", static_cast<double>(st.drains_aborted), "count");
    m.add("staging.hop_retries", static_cast<double>(st.hop_retries), "count");
    m.add("staging.restores_local", static_cast<double>(st.restores_by_level[0]), "count");
    m.add("staging.restores_partner", static_cast<double>(st.restores_by_level[1]), "count");
    m.add("staging.restores_pfs", static_cast<double>(st.restores_by_level[2]), "count");
    m.add("staging.rebuilds", static_cast<double>(st.rebuild_restores), "count");
    m.add("staging.epoch_fallbacks", static_cast<double>(st.epoch_fallbacks), "count");
    m.add("recovery.count", static_cast<double>(total_ms.size()), "count");
    m.add("recovery.superseded", static_cast<double>(superseded), "count");
    m.add("recovery.restart_ms_p50", percentile(restart_ms, 0.50), "ms");
    m.add("recovery.restart_ms_p95", percentile(restart_ms, 0.95), "ms");
    m.add("recovery.catchup_ms_p50", percentile(catchup_ms, 0.50), "ms");
    m.add("recovery.catchup_ms_p95", percentile(catchup_ms, 0.95), "ms");
    m.add("recovery.rank_restarts", static_cast<double>(rank_restarts), "count");
    m.add("recovery.suppressed_sends", static_cast<double>(suppressed), "count");
    m.add("recovery.duplicate_drops", static_cast<double>(dup_drops), "count");
  }
};

/// True when each failed cluster's last recovery record completed: earlier
/// records of the same cluster may have been superseded by a new failure
/// mid-recovery, but the last one must catch up.
bool every_cluster_recovered(const RunOut& o) {
  std::map<int, const mpi::RecoveryRecord*> last;
  for (const mpi::RecoveryRecord& rec : o.recoveries) {
    const mpi::RecoveryRecord*& l = last[rec.failed_cluster];
    if (l == nullptr || rec.failure_time >= l->failure_time) l = &rec;
  }
  for (const auto& [cluster, rec] : last)
    if (!rec->complete()) return false;
  return !last.empty();
}

/// Poisson failure schedule over [10 %, 85 %] of the failure-free span, as
/// ablation_mtbf draws it: exponential gaps of mean `mtbf`, uniform victim
/// ranks, and one detection-plus-restart window of room after each failure.
std::vector<Failure> poisson_schedule(uint64_t seed, uint64_t stream, sim::Time t_ff,
                                      sim::Time mtbf, int nranks,
                                      const mpi::MachineConfig& mc) {
  util::Pcg32 rng(seed, 0xfa11 + stream);
  std::vector<Failure> out;
  sim::Time t = t_ff * 0.1;
  for (;;) {
    t += -mtbf * std::log(1.0 - rng.next_double());
    if (t > t_ff * 0.85) break;
    out.push_back({t, static_cast<int>(rng.next_bounded(static_cast<uint32_t>(nranks)))});
    t += mc.failure_detection_delay + mc.restart_delay;
  }
  return out;
}

// ---- workloads -------------------------------------------------------------

/// Table 2: each paper app run natively and under SPBC at 16 clusters with
/// checkpoints off. Exercises engine, network, matching, sender log and
/// partitioner; no checkpoint, staging or recovery code runs.
void ff_logging(uint64_t seed, Pass& p) {
  constexpr int kRanks = 128;
  std::vector<harness::ScenarioConfig> cfgs;
  std::vector<std::vector<int>> maps;
  for (const std::string& app : paper_apps()) {
    harness::ScenarioConfig cfg =
        make_cfg(app, kRanks, 16, harness::ProtocolKind::kSpbc, 6, seed);
    cfg.spbc.checkpoint_every = 0;
    maps.push_back(p.setup(cfg));
    cfgs.push_back(cfg);
  }
  const std::vector<int> single = baselines::single_cluster_map(kRanks);
  double sum = 0;
  for (size_t i = 0; i < cfgs.size(); ++i) {
    harness::ScenarioConfig native = cfgs[i];
    native.protocol = harness::ProtocolKind::kNative;
    const RunOut n = p.run(native, single, {}, "run.base");
    const RunOut s = p.run(cfgs[i], maps[i], {}, "run.ff");
    p.check(n.prof.bytes_logged == 0 && s.log_bytes > 0 &&
            s.log_bytes == s.prof.bytes_logged);
    const double ovh = n.vt > 0 ? (s.vt - n.vt) / n.vt * 100.0 : 0;
    p.vt.add("ff." + paper_apps()[i] + ".overhead_pct", ovh, "%");
    sum += ovh;
  }
  p.vt.add("vt_overhead_pct", sum / static_cast<double>(cfgs.size()), "%");
}

/// The write path: MiniGhost with a checkpoint every iteration through the
/// full staging and reduction pipeline, against a free-I/O run of the same
/// configuration. No failures.
void ckpt_write(uint64_t seed, Pass& p) {
  constexpr int kIters = 8;
  harness::ScenarioConfig cfg =
      make_cfg("MiniGhost", 256, 16, harness::ProtocolKind::kSpbc, kIters, seed);
  cfg.spbc.checkpoint_every = 1;
  add_staging(cfg, kCkptStateBytes, seed);
  const std::vector<int> map = p.setup(cfg);
  harness::ScenarioConfig free_io = cfg;
  free_io.spbc.storage = ckpt::StorageLevel::kNone;
  const RunOut f = p.run(free_io, map, {}, "run.base");
  const RunOut s = p.run(cfg, map, {}, "run.ff");
  const uint64_t captures = static_cast<uint64_t>(cfg.nranks) * kIters;
  p.check(s.checkpoints == captures && f.checkpoints == captures);
  p.check(s.raw > s.stored && s.stored > 0 && s.deltas > 0);
  p.check(s.staging.pfs_flushes > 0 && s.staging.drains_aborted == 0);
  p.vt.add("vt_overhead_pct", f.vt > 0 ? (s.vt - f.vt) / f.vt * 100.0 : 0, "%");
  p.vt.add("ckpt_wire_mb",
           static_cast<double>(s.staging.bytes_to_partner + s.staging.bytes_to_parity +
                               s.staging.bytes_to_pfs) /
               1.0e6,
           "MB");
}

/// The read side: (a) Fig. 5's 16-cluster column at 128 ranks (one failure
/// at 97 % of the failure-free time, rollback to the initial state), and
/// (b) seeded Poisson failure storms on MiniGhost in validate mode with the
/// ckpt-write staging and reduction, each recovered run checked against the
/// failure-free checksums.
void recovery(uint64_t seed, Pass& p) {
  constexpr int kRanks = 128;
  constexpr int kStorms = 20;
  constexpr int kStormRanks = 64;
  std::vector<harness::ScenarioConfig> cfgs;
  std::vector<std::vector<int>> maps;
  for (const std::string& app : paper_apps()) {
    harness::ScenarioConfig cfg =
        make_cfg(app, kRanks, 16, harness::ProtocolKind::kSpbc, 6, seed);
    cfg.spbc.checkpoint_every = 0;
    maps.push_back(p.setup(cfg));
    cfgs.push_back(cfg);
  }
  harness::ScenarioConfig storm =
      make_cfg("MiniGhost", kStormRanks, 8, harness::ProtocolKind::kSpbc, 6, seed);
  storm.spbc.checkpoint_every = 2;
  storm.app_cfg.validate = true;
  add_staging(storm, kStormStateBytes, seed);
  const std::vector<int> storm_map = p.setup(storm);

  double rework_sum = 0;
  for (size_t i = 0; i < cfgs.size(); ++i) {
    const RunOut ff = p.run(cfgs[i], maps[i], {}, "run.ff");
    const RunOut fr = p.run(cfgs[i], maps[i], {{ff.vt * 0.97, 0}}, "run.fail");
    double rework = 0;
    if (p.check(!fr.recoveries.empty() && fr.recoveries.front().complete())) {
      const mpi::RecoveryRecord& rec = fr.recoveries.front();
      const sim::Time lost = rec.failure_time - rec.checkpoint_time;
      rework = lost > 0 ? rec.rework() / lost : 0;
    }
    p.vt.add("fig5." + paper_apps()[i] + ".rework", rework, "x");
    rework_sum += rework;
  }
  p.vt.add("rework_ratio", rework_sum / static_cast<double>(cfgs.size()), "x");

  const RunOut ff = p.run(storm, storm_map, {}, "run.ff");
  p.check(!ff.checksums.empty());
  double vt_fail = 0;
  for (int i = 0; i < kStorms; ++i) {
    const std::vector<Failure> sched =
        poisson_schedule(seed, static_cast<uint64_t>(i), ff.vt, 0.125 * ff.vt,
                         kStormRanks, storm.machine);
    const RunOut fr = p.run(storm, storm_map, sched, "run.fail");
    p.check(fr.checksums == ff.checksums && (sched.empty() || every_cluster_recovered(fr)));
    p.add_recoveries(fr);
    vt_fail += fr.vt;
  }
  p.vt.add("vt_overhead_pct", (vt_fail / kStorms - ff.vt) / ff.vt * 100.0, "%");
  p.vt.add("recovery_p50_ms", percentile(p.total_ms, 0.50), "ms");
  p.vt.add("recovery_p95_ms", percentile(p.total_ms, 0.95), "ms");
  p.vt.add("lost_work_rank_s", p.lost_rank_s, "rank-s");
}

/// Scale: 4,096 ranks in 8 clusters on the sharded engine (one shard per
/// cluster) with aggregated rollbacks and tree markers; a failure-free run
/// and a run with two failures drawn from the seed.
void scale_4k(uint64_t seed, Pass& p) {
  constexpr int kRanks = 4096;
  harness::ScenarioConfig cfg =
      make_cfg("MiniGhost", kRanks, 8, harness::ProtocolKind::kSpbc, 3, seed);
  cfg.app_cfg.msg_scale = 0.05;
  cfg.app_cfg.compute_scale = 0.05;
  cfg.spbc.checkpoint_every = 2;
  cfg.machine.engine_shards = 0;
  cfg.machine.aggregate_rollbacks = true;
  cfg.machine.tree_ckpt_markers = true;
  const std::vector<int> map = p.setup(cfg);
  const RunOut ff = p.run(cfg, map, {}, "run.ff");
  // Two failures, one in each half of [10 %, 85 %] of the failure-free span,
  // in two different clusters: a second failure in the first one's cluster
  // can land during its recovery and coalesce into one rollback, which would
  // make the recovered work depend on the seed's draw of victims.
  util::Pcg32 rng(seed, 0x16c);
  std::vector<Failure> sched;
  for (int half = 0; half < 2; ++half) {
    const double lo = half == 0 ? 0.10 : 0.50, hi = half == 0 ? 0.45 : 0.85;
    const sim::Time at = ff.vt * (lo + (hi - lo) * rng.next_double());
    int victim = static_cast<int>(rng.next_bounded(kRanks));
    while (half == 1 && map.at(static_cast<size_t>(victim)) ==
                            map.at(static_cast<size_t>(sched[0].victim)))
      victim = static_cast<int>(rng.next_bounded(kRanks));
    sched.push_back({at, victim});
  }
  const RunOut fr = p.run(cfg, map, sched, "run.fail");
  p.check(fr.recoveries.size() >= 2 && every_cluster_recovered(fr));
  p.add_recoveries(fr);
  p.vt.add("vt_overhead_pct", ff.vt > 0 ? (fr.vt - ff.vt) / ff.vt * 100.0 : 0, "%");
  p.vt.add("lost_work_rank_s", p.lost_rank_s, "rank-s");
}

struct Workload {
  const char* name;
  void (*pass)(uint64_t, Pass&);
  // Probe shapes: the per-rank state the store and codec probes save (the
  // workloads without a state model use the storms' size) and whether the
  // sender-log probe appends real payload bytes, as validate mode does.
  uint64_t state_bytes;
  bool real_payloads;
};

const Workload kWorkloads[] = {
    {"ff-logging", ff_logging, kStormStateBytes, false},
    {"ckpt-write", ckpt_write, kCkptStateBytes, false},
    {"recovery", recovery, kStormStateBytes, true},
    {"scale-4k", scale_4k, kStormStateBytes, false},
};

// ---- layer probes ----------------------------------------------------------
// Each probe times one layer's public functions on workload-shaped inputs and
// checks its own output, so no probe times a broken path.

/// Engine event schedule + pop, ns per event.
double probe_event_ns(Checks& c) {
  constexpr int kEvents = 400000;
  sim::Engine eng;
  uint64_t fired = 0;
  const double t0 = benchm::now_s();
  for (int i = 0; i < kEvents; ++i)
    eng.at(sim::usec(static_cast<double>(i % 1024)), [&fired] { ++fired; });
  eng.run();
  const double dt = benchm::now_s() - t0;
  c.check(fired == kEvents);
  return dt / kEvents * 1e9;
}

/// One fiber park/resume round trip (two context switches and the resume
/// event), ns per round trip.
double probe_switch_ns(Checks& c) {
  constexpr int kWaits = 400000;
  sim::Engine eng(64 * 1024);
  int done = 0;
  eng.spawn([&eng, &done] {
    for (int i = 0; i < kWaits; ++i) eng.wait(sim::nsec(1.0));
    done = 1;
  });
  const double t0 = benchm::now_s();
  eng.run();
  const double dt = benchm::now_s() - t0;
  c.check(done == 1 && std::fabs(eng.now() - sim::nsec(kWaits)) < sim::nsec(1.0));
  return dt / kWaits * 1e9;
}

/// Matching with pattern ids: 16 posted receptions per round (one per
/// neighbor) matched by envelopes arriving in a permuted order, ns per
/// matched message.
double probe_match_ns(Checks& c) {
  constexpr int kPeers = 16, kRounds = 20000;
  mpi::MatchEngine me;
  me.set_match_pattern_ids(true);
  uint64_t good = 0, early = 0;
  uint64_t seq = 0;
  const double t0 = benchm::now_s();
  for (int round = 0; round < kRounds; ++round) {
    const mpi::PatternTag pid{1, static_cast<uint32_t>(round)};
    for (int i = 0; i < kPeers; ++i) {
      auto st = std::make_shared<mpi::RequestState>();
      st->match_src = i;
      st->match_tag = 7;
      st->pid = pid;
      st->post_seq = ++seq;
      if (me.on_post(st).matched) ++early;  // nothing is unexpected yet
    }
    for (int j = 0; j < kPeers; ++j) {
      mpi::Envelope env;
      env.src = (j * 5 + 3) % kPeers;
      env.dst = kPeers;
      env.tag = 7;
      env.pid = pid;
      env.seqnum = static_cast<uint64_t>(round) + 1;
      mpi::Payload pl = mpi::Payload::make_synthetic(4096, seq);
      auto got = me.on_envelope(env, pl, true, 0);
      if (got && got->match_src == env.src) ++good;
    }
  }
  const double dt = benchm::now_s() - t0;
  c.check(good == static_cast<uint64_t>(kPeers) * kRounds && early == 0 &&
          me.posted_count() == 0 && me.unexpected().empty());
  return dt / (static_cast<double>(kPeers) * kRounds) * 1e9;
}

/// SenderLog::append at `msg_bytes` per message, ns per append.
double probe_append_ns(Checks& c, uint64_t msg_bytes, bool real) {
  constexpr int kAppends = 4096, kRounds = 40;
  std::vector<unsigned char> data(real ? msg_bytes : 0, 0x5a);
  const mpi::Payload pl = real ? mpi::Payload::from_bytes(data.data(), msg_bytes)
                               : mpi::Payload::make_synthetic(msg_bytes, 0x5a);
  mpi::Envelope env;
  env.src = 0;
  env.dst = 1;
  env.bytes = msg_bytes;
  double dt = 0;
  bool ok = true;
  for (int round = 0; round < kRounds; ++round) {
    core::SenderLog log;
    const double t0 = benchm::now_s();
    for (int i = 0; i < kAppends; ++i) {
      env.seqnum = static_cast<uint64_t>(i) + 1;
      log.append(env, pl);
    }
    dt += benchm::now_s() - t0;
    ok = ok && log.bytes_appended() == msg_bytes * kAppends &&
         log.messages_appended() == kAppends;
  }
  c.check(ok);
  return dt / (static_cast<double>(kAppends) * kRounds) * 1e9;
}

struct StoreProbe {
  double save_mb_s = 0;
  double materialize_mb_s = 0;
  double compress_mb_s = 0;
  double decompress_mb_s = 0;
};

/// Store::save over one full delta chain (full capture plus stride-1 deltas)
/// of the evolving state with the workloads' reduction, then materialize of
/// every epoch; and the LZ codec alone on the same state images.
StoreProbe probe_store(Checks& c, uint64_t state_bytes, uint64_t seed) {
  harness::ScenarioConfig cfg;
  add_staging(cfg, state_bytes, seed);
  const ckpt::StateModelConfig& sm = cfg.spbc.state_model;
  const ckpt::ReductionConfig& rc = cfg.spbc.reduction;
  const uint64_t stride = rc.full_stride;
  constexpr int kChains = 12;

  std::vector<std::vector<unsigned char>> states;
  std::vector<unsigned char> s = ckpt::make_state(sm, 0);
  for (uint64_t e = 1; e <= stride; ++e) {
    ckpt::evolve_state(s, sm, 0, e);
    states.push_back(s);
  }
  const double mb = static_cast<double>(state_bytes) * static_cast<double>(stride) *
                    kChains / 1.0e6;
  StoreProbe out;
  double t_save = 0, t_mat = 0;
  bool ok = true;
  for (int chain = 0; chain < kChains; ++chain) {
    ckpt::Store store;
    store.set_reduction(rc);
    double t0 = benchm::now_s();
    for (uint64_t e = 1; e <= stride; ++e)
      store.save(0, ckpt::Snapshot{static_cast<double>(e), e, states[e - 1]});
    t_save += benchm::now_s() - t0;
    std::vector<unsigned char> scratch;
    t0 = benchm::now_s();
    for (uint64_t e = 1; e <= stride; ++e)
      ok = ok && store.materialize(0, e, scratch) == states[e - 1];
    t_mat += benchm::now_s() - t0;
    ok = ok && store.delta_snapshots() == stride - 1;
  }
  c.check(ok);
  out.save_mb_s = mb / t_save;
  out.materialize_mb_s = mb / t_mat;

  double t_c = 0, t_d = 0;
  ok = true;
  for (int chain = 0; chain < kChains; ++chain) {
    for (const std::vector<unsigned char>& img : states) {
      double t0 = benchm::now_s();
      const std::vector<unsigned char> enc = util::codec::lz_compress(img);
      t_c += benchm::now_s() - t0;
      t0 = benchm::now_s();
      const std::vector<unsigned char> dec = util::codec::lz_decompress(enc, img.size());
      t_d += benchm::now_s() - t0;
      ok = ok && dec == img;
    }
  }
  c.check(ok);
  out.compress_mb_s = mb / t_c;
  out.decompress_mb_s = mb / t_d;
  return out;
}

/// Per-layer numbers of a traced run: span times per traced pass, the
/// tracing overhead, and the layer probes.
void traced_metrics(Metrics& m, const Spans& spans, double passes,
                    const Pass& p, const Workload& wl, uint64_t seed,
                    double overhead_pct, Checks& probes) {
  const double machine_s = spans.total_time("run.base.machine") +
                           spans.total_time("run.ff.machine") +
                           spans.total_time("run.fail.machine");
  m.add("sim.host_ns_per_event",
        p.events ? machine_s / passes / static_cast<double>(p.events) * 1e9 : 0, "ns");
  m.add("clustering.cluster_map_s", spans.total_time("setup") / passes, "s");
  m.add("span.pass.self_s", spans.self_time("pass") / passes, "s");
  for (const char* c : {"base", "ff", "fail"}) {
    const std::string run = std::string("run.") + c;
    m.add("span." + run + ".machine_s", spans.total_time(run + ".machine") / passes, "s");
    m.add("span." + run + ".self_s", spans.self_time(run) / passes, "s");
  }
  m.add("trace_overhead_pct", overhead_pct, "%");

  m.add("sim.probe.event_ns", probe_event_ns(probes), "ns");
  m.add("sim.probe.switch_ns", probe_switch_ns(probes), "ns");
  m.add("mpi.probe.match_ns", probe_match_ns(probes), "ns");
  const uint64_t msg_bytes = p.log_msgs ? p.log_bytes / p.log_msgs : 4096;
  m.add("log.probe.append_ns", probe_append_ns(probes, msg_bytes, wl.real_payloads), "ns");
  const StoreProbe sp = probe_store(probes, wl.state_bytes, seed);
  m.add("store.probe.save_mb_s", sp.save_mb_s, "MB/s");
  m.add("store.probe.materialize_mb_s", sp.materialize_mb_s, "MB/s");
  m.add("codec.probe.compress_mb_s", sp.compress_mb_s, "MB/s");
  m.add("codec.probe.decompress_mb_s", sp.decompress_mb_s, "MB/s");
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "");
  const int64_t seed_arg = cli.get_int("seed", 1);
  const double seconds = cli.get_double("seconds", 0.0);
  const std::string json_path = cli.get_string("json", "");
  const std::string trace_path = cli.get_string("trace", "");
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (name == w.name) wl = &w;
  if (wl == nullptr || seed_arg <= 0 || !(seconds >= 0)) {
    std::fprintf(stderr,
                 "usage: spbc_bench --workload={ff-logging|ckpt-write|recovery|"
                 "scale-4k} [--seed=N>0] [--seconds=S] [--json=PATH] "
                 "[--trace=PATH]\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(seed_arg);
  const bool traced = !trace_path.empty();

  // Pass 0 warms up (allocator, page faults, caches) and is not timed; it is
  // the reference for determinism and peak RSS. Timed passes follow while
  // the next one, at the median pass time so far, still ends within
  // --seconds of the start, and there is at least one. A traced run
  // alternates untraced and traced timed passes, so the tracing overhead is
  // measured in one process; per-layer times come from the traced passes.
  //
  // The host-speed reference runs after every pass. An untraced timed pass
  // is scaled by HostRef::kNominalS over the mean of the reference times
  // just before and just after it; the end-to-end times are these
  // host-normalized values, the host.* metrics the times as measured.
  Spans off(false), on(true);
  std::unique_ptr<Pass> first;
  std::string first_fp;
  Checks total;
  std::unique_ptr<benchm::HostRef> host;
  double ref_before = 0;
  std::vector<double> step_s, ref_s;
  std::vector<double> wall, setup, msgs_per_s;           // host-normalized
  std::vector<double> raw_wall, raw_setup, wall_traced;  // as measured
  // VmHWM after the first pass: later passes in the same process only add
  // allocator fragmentation, which no single simulation run has.
  double rss_mb = 0;
  const double start = benchm::now_s();
  for (int i = 0;; ++i) {
    const bool trace_this = traced && i > 0 && i % 2 == 0;
    auto p = std::make_unique<Pass>(trace_this ? on : off);
    const double t0 = benchm::now_s();
    {
      Spans::Scope scope(p->spans, "pass");
      wl->pass(seed, *p);
    }
    const double dt = benchm::now_s() - t0;
    if (i == 0) {
      rss_mb = static_cast<double>(benchm::vm_hwm_kb()) / 1024.0;
      // Built after VmHWM is read: its buffers are not the simulator's.
      host = std::make_unique<benchm::HostRef>();
      host->measure();  // first touch of the buffers
    }
    const double ref_after = host->measure();
    ref_s.push_back(ref_after);
    total.attempted += p->attempted;
    total.failed += p->failed;

    // Determinism: every pass reproduces the first pass's virtual-time
    // results and layer counts exactly.
    Metrics counts;
    p->layer_counts(counts);
    const std::string fp = p->vt.str() + counts.str();
    if (i == 0) first_fp = fp;
    total.check(fp == first_fp);

    if (trace_this) {
      wall_traced.push_back(dt);
    } else if (i > 0) {
      const double speed = benchm::HostRef::kNominalS / (0.5 * (ref_before + ref_after));
      raw_wall.push_back(dt);
      raw_setup.push_back(p->setup_s);
      wall.push_back(dt * speed);
      setup.push_back(p->setup_s * speed);
      msgs_per_s.push_back(static_cast<double>(p->msgs) / ((dt - p->setup_s) * speed));
    }
    ref_before = ref_after;
    if (i == 0) first = std::move(p);
    step_s.push_back(benchm::now_s() - t0);
    if (!wall.empty() && (!traced || !wall_traced.empty()) &&
        benchm::now_s() - start + median(step_s) > seconds)
      break;
  }

  const Pass& p = *first;
  Metrics m;
  m.add("wall_s", median(wall), "s");
  m.add("setup_s", median(setup), "s");
  m.add("peak_rss_mb", rss_mb, "MB");
  m.add("sim_msgs_per_s", median(msgs_per_s), "1/s");
  m.add("log_rate_mb_s", p.spbc_runs ? p.log_rate_sum / static_cast<double>(p.spbc_runs) : 0,
        "MB/s");
  m.add("host.wall_s", median(raw_wall), "s");
  m.add("host.setup_s", median(raw_setup), "s");
  m.add("host.ref_s", median(ref_s), "s");
  m.merge(p.vt);
  m.add("passes", static_cast<double>(wall.size() + wall_traced.size()), "count");
  p.layer_counts(m);

  if (traced) {
    const double base = median(raw_wall);
    const double overhead = base > 0 ? (median(wall_traced) - base) / base * 100.0 : 0;
    traced_metrics(m, on, static_cast<double>(wall_traced.size()), p, *wl, seed,
                   overhead, total);
  }
  const uint64_t attempted = total.attempted, failed = total.failed;
  m.add("ops_failed_frac", static_cast<double>(failed) / static_cast<double>(attempted),
        "frac");

  std::fputs(m.str().c_str(), stdout);
  std::printf("correct %s\nattempted %llu\nfailed %llu\n", failed ? "false" : "true",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool io_ok = true;
  if (traced && !on.write_chrome(trace_path)) {
    std::fprintf(stderr, "spbc_bench: cannot write %s\n", trace_path.c_str());
    io_ok = false;
  }
  if (!json_path.empty() && !m.write_json(json_path, failed == 0, attempted, failed)) {
    std::fprintf(stderr, "spbc_bench: cannot write %s\n", json_path.c_str());
    io_ok = false;
  }
  if (!io_ok) return 2;
  return failed == 0 ? 0 : 1;
}

