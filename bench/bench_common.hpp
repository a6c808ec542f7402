#pragma once
// Shared plumbing for the experiment benches. Each bench binary reproduces
// one table or figure of the paper (see DESIGN.md's per-experiment index)
// and prints the same rows/series the paper reports. All binaries run with
// no arguments at a scaled-down default and accept flags to reach the
// paper's full 512-rank configuration:
//   --ranks=N --ppn=N --iters=N --ckpt-every=N --seed=N
//
// Absolute numbers are not expected to match the paper (the substrate is a
// simulator, not the authors' InfiniBand testbed); the shapes are.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace spbc::bench {

struct BenchOpts {
  int ranks = 128;
  int ppn = 8;
  int iters = 6;
  int ckpt_every = 2;
  uint64_t seed = 1;
  double msg_scale = 1.0;
  double compute_scale = 1.0;
  bool use_clustering_tool = true;
  // Staging redundancy scheme override (--scheme {single,partner,xor,rs},
  // --group-size for XOR, --rs-k/--rs-m for Reed-Solomon); empty = the
  // config default (partner). XOR is a preset: --scheme=xor --group-size=G
  // runs RS(G-1, 1) (see xor_scheme below).
  std::string scheme;
  int group_size = 4;
  int rs_k = 4;
  int rs_m = 2;
  // System noise, as on the paper's real testbed: OS jitter on compute
  // blocks and latency jitter on the network. Without it a simulator is
  // perfectly synchronous and failure-free runs contain no waits for
  // recovery to win back.
  double compute_noise = 0.08;
  double net_jitter = 0.20;
  // Engine execution layout (--shards N, --threads N): 1 = every cluster's
  // events on one queue; 0 = one exec shard per cluster; N = min(N,
  // nclusters). Every value runs the same trajectory. Threads > 1 runs the
  // conservative-lookahead parallel executor (requires node-colocated
  // clusters and more than one exec shard). See DESIGN.md §12.
  int shards = 1;
  int threads = 1;
  // Control-plane ablation knobs (ablation_control):
  // --mtbf-drift: calm-phase MTBF / storm-phase MTBF ratio of the drifting
  // failure process the self-tuning controller must track.
  double mtbf_drift = 40.0;
  // --scrub-period: background audit-wave cadence in virtual seconds for the
  // controller arm (< 0 = auto-scale to the workload, 0 = scrubbing off).
  double scrub_period = -1.0;
  // --escalate: arm scheme escalation (XOR -> RS on correlated double
  // losses) and include same-group double losses in the storm.
  bool escalate = false;
  // Elastic-recovery knobs (ablation_elastic):
  // --spares: hot-spare nodes appended after the compute nodes; permanent
  // node losses hot-swap onto them until the pool drains, then degrade to
  // shrunk restarts.
  int spares = 0;
  // --repart-period: streaming-repartitioner cadence in virtual seconds
  // (0 = the pinned Section 6.1 map for the whole run).
  double repart_period = 0;
  // Checkpoint data-reduction knobs (ablation_compress; DESIGN.md §15):
  // --compress: stage-boundary LZ/RLE codec applied once at LOCAL capture.
  bool compress = false;
  // --delta-blocks: delta-capture block size in bytes
  // (0 = delta encoding off; captures stay full).
  int delta_blocks = 0;
  // --full-stride: delta-chain length bound including the full capture
  // (1 = every capture full, 0 = unbounded chains).
  int full_stride = 8;
  // --state-bytes / --mutate: the synthetic evolving app-state model that
  // gives delta encoding realistic block-level churn (0 bytes = off; the
  // snapshot then carries only protocol + app token state).
  int state_bytes = 0;
  double mutation_rate = 0.10;
};

/// The shared option groups beyond the scale flags. A bench names the
/// groups whose settings reach its runs; a flag of any other group stays
/// unread, so cli.reject_unknown() stops the bench on it.
enum OptGroup : unsigned {
  kRedundancy = 1u << 0,  // --group-size --rs-k --rs-m
  kControl = 1u << 1,     // --mtbf-drift --scrub-period --escalate
  kElastic = 1u << 2,     // --spares --repart-period
  kReduction = 1u << 3,   // --compress --delta-blocks --full-stride
                          // --state-bytes --mutate
  kEngine = 1u << 4,      // --shards --threads
  kScheme = 1u << 5,      // --scheme, for benches whose runs share one
                          // scheme; one that sets it per arm leaves it unread
};

/// Reads the scale flags and the flags of `groups` from `cli`; the bench
/// reads its own flags from the same Cli, then calls cli.reject_unknown().
inline BenchOpts parse_opts(const util::Cli& cli, unsigned groups) {
  BenchOpts o;
  o.ranks = cli.get_int32("ranks", o.ranks);
  o.ppn = cli.get_int32("ppn", o.ppn);
  o.iters = cli.get_int32("iters", o.iters);
  o.ckpt_every = cli.get_int32("ckpt-every", o.ckpt_every);
  o.seed = static_cast<uint64_t>(cli.get_int("seed", 1));
  o.msg_scale = cli.get_double("msg-scale", 1.0);
  o.compute_scale = cli.get_double("compute-scale", 1.0);
  o.compute_noise = cli.get_double("noise", o.compute_noise);
  o.net_jitter = cli.get_double("jitter", o.net_jitter);
  if (cli.get_flag("block-clustering")) o.use_clustering_tool = false;
  if (groups & kScheme) o.scheme = cli.get_string("scheme", "");
  if (groups & kRedundancy) {
    o.group_size = cli.get_int32("group-size", o.group_size);
    o.rs_k = cli.get_int32("rs-k", o.rs_k);
    o.rs_m = cli.get_int32("rs-m", o.rs_m);
  }
  if (groups & kEngine) {
    o.shards = cli.get_int32("shards", o.shards);
    o.threads = cli.get_int32("threads", o.threads);
  }
  if (groups & kControl) {
    o.mtbf_drift = cli.get_double("mtbf-drift", o.mtbf_drift);
    o.scrub_period = cli.get_double("scrub-period", o.scrub_period);
    o.escalate = cli.get_flag("escalate");
  }
  if (groups & kElastic) {
    o.spares = cli.get_int32("spares", o.spares);
    o.repart_period = cli.get_double("repart-period", o.repart_period);
  }
  if (groups & kReduction) {
    o.compress = cli.get_flag("compress");
    o.delta_blocks = cli.get_int32("delta-blocks", o.delta_blocks);
    o.full_stride = cli.get_int32("full-stride", o.full_stride);
    o.state_bytes = cli.get_int32("state-bytes", o.state_bytes);
    o.mutation_rate = cli.get_double("mutate", o.mutation_rate);
  }
  if (!o.scheme.empty() && o.scheme != "xor" && !ckpt::parse_scheme(o.scheme)) {
    std::fprintf(stderr, "unknown --scheme=%s (single|partner|xor|rs)\n",
                 o.scheme.c_str());
    std::exit(2);
  }
  // The redundancy schemes assert on these shapes rather than clamp them.
  auto reject = [](const char* flag, int value, const char* rule) {
    std::fprintf(stderr, "invalid --%s=%d (%s)\n", flag, value, rule);
    std::exit(2);
  };
  if (o.rs_k < 1) reject("rs-k", o.rs_k, "must be >= 1");
  if (o.rs_m < 1) reject("rs-m", o.rs_m, "must be >= 1");
  // The Cauchy family of an RS(k, m) group spans (k+m)(m+1) field elements.
  if (o.rs_k > 256 || o.rs_m > 256 || (o.rs_k + o.rs_m) * (o.rs_m + 1) > 256) {
    std::fprintf(stderr,
                 "invalid --rs-k=%d --rs-m=%d ((rs-k + rs-m) * (rs-m + 1) "
                 "must be <= 256)\n",
                 o.rs_k, o.rs_m);
    std::exit(2);
  }
  // The XOR preset is RS(G-1, 1), whose Cauchy family spans 2G elements.
  if (o.group_size < 2 || o.group_size > 128)
    reject("group-size", o.group_size, "must be in [2, 128]");
  return o;
}

/// XOR parity over --group-size=G node groups: the RS(G-1, 1) preset.
inline ckpt::RedundancyConfig xor_scheme(const BenchOpts& o) {
  return {ckpt::SchemeKind::kReedSolomon, o.group_size - 1, 1};
}

/// RS(--rs-k, --rs-m).
inline ckpt::RedundancyConfig rs_scheme(const BenchOpts& o) {
  return {ckpt::SchemeKind::kReedSolomon, o.rs_k, o.rs_m};
}

inline harness::ScenarioConfig make_config(const BenchOpts& o, const std::string& app,
                                           int nclusters,
                                           harness::ProtocolKind protocol) {
  harness::ScenarioConfig cfg;
  cfg.app = app;
  cfg.nranks = o.ranks;
  cfg.ranks_per_node = o.ppn;
  cfg.nclusters = nclusters;
  cfg.protocol = protocol;
  cfg.app_cfg.iters = o.iters;
  cfg.app_cfg.validate = false;  // synthetic payloads at bench scale
  cfg.app_cfg.msg_scale = o.msg_scale;
  cfg.app_cfg.compute_scale = o.compute_scale;
  cfg.spbc.checkpoint_every = static_cast<uint64_t>(o.ckpt_every);
  if (o.scheme == "xor") {
    cfg.spbc.redundancy = xor_scheme(o);
  } else {
    if (!o.scheme.empty())
      cfg.spbc.redundancy.kind = *ckpt::parse_scheme(o.scheme);
    cfg.spbc.redundancy.rs_k = o.rs_k;
    cfg.spbc.redundancy.rs_m = o.rs_m;
  }
  cfg.machine.seed = o.seed;
  cfg.machine.compute_noise_frac = o.compute_noise;
  cfg.machine.net.jitter_frac = o.net_jitter;
  cfg.machine.net.jitter_seed = o.seed;
  cfg.machine.engine_shards = o.shards;
  cfg.machine.engine_threads = o.threads;
  cfg.machine.spare_nodes = o.spares;
  cfg.spbc.control.repartition_period = o.repart_period;
  cfg.spbc.reduction.compress = o.compress;
  if (o.delta_blocks > 0) {
    cfg.spbc.reduction.delta = true;
    cfg.spbc.reduction.block_bytes = static_cast<uint32_t>(o.delta_blocks);
  }
  cfg.spbc.reduction.full_stride = static_cast<uint64_t>(
      o.full_stride < 0 ? 0 : o.full_stride);
  if (o.state_bytes > 0) {
    cfg.spbc.state_model.bytes = static_cast<uint64_t>(o.state_bytes);
    cfg.spbc.state_model.block_bytes = cfg.spbc.reduction.block_bytes;
    cfg.spbc.state_model.mutation_rate = o.mutation_rate;
    cfg.spbc.state_model.seed = o.seed;
  }
  cfg.use_clustering_tool = o.use_clustering_tool;
  return cfg;
}

/// Shared deterministic block-mutation payload generator (DESIGN.md §15):
/// the protocol's synthetic evolving state and the bench/test harnesses all
/// derive payloads from the same (seed, rank, epoch) keys, so expected
/// checksums and delta chains can be recomputed anywhere without replaying
/// a run. Epoch e state = make_payload_state(cfg', rank) evolved e times.
inline std::vector<unsigned char> payload_state_at(
    const ckpt::StateModelConfig& cfg, int rank, uint64_t epoch) {
  std::vector<unsigned char> buf = ckpt::make_state(cfg, rank);
  for (uint64_t e = 1; e <= epoch; ++e) ckpt::evolve_state(buf, cfg, rank, e);
  return buf;
}

/// Seeded Poisson failure storm over [10 %, 85 %] of the failure-free span
/// `t_ff`, as (time, victim rank) pairs for ScenarioConfig::extra_failures.
/// Failures past the original span would hit a finished run; each arrival
/// gets one detection + restart window of room before the next. `salt`
/// names the RNG stream, so each bench keeps its own schedule.
inline std::vector<std::pair<sim::Time, int>> poisson_failures(
    const harness::ScenarioConfig& cfg, sim::Time t_ff, double mtbf,
    uint64_t seed, uint64_t salt) {
  util::Pcg32 rng(seed, salt);
  std::vector<std::pair<sim::Time, int>> out;
  sim::Time t = t_ff * 0.1;
  for (;;) {
    double u = rng.next_double();
    t += -mtbf * std::log(1.0 - u);
    if (t > t_ff * 0.85) break;
    int victim = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(cfg.nranks)));
    out.push_back({t, victim});
    t += cfg.machine.failure_detection_delay + cfg.machine.restart_delay;
  }
  return out;
}

inline const std::vector<std::string>& paper_apps() {
  static const std::vector<std::string> apps = {"AMG",  "CM1",    "GTC",
                                                "MILC", "MiniFE", "MiniGhost"};
  return apps;
}

inline const std::vector<std::string>& nas_apps() {
  static const std::vector<std::string> apps = {"BT", "LU", "MG", "SP"};
  return apps;
}

inline void print_header(const char* what, const BenchOpts& o) {
  std::printf("== %s ==\n", what);
  std::printf("ranks=%d ppn=%d iters=%d ckpt_every=%d clustering=%s\n\n", o.ranks,
              o.ppn, o.iters, o.ckpt_every,
              o.use_clustering_tool ? "tool[30]" : "block");
}

}  // namespace spbc::bench
