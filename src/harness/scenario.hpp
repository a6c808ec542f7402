#pragma once
// Experiment harness: builds a Machine + protocol + workload, runs it
// (optionally with an injected failure), and extracts the measurements the
// paper's tables and figures report.
//
// Methodology mirrors Section 6.1: the clustering configuration comes from a
// short traced run of the application fed to the clustering tool; results
// with SPBC are normalized against the native (unmodified library) run of
// the same configuration; checkpoint I/O is free by default.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "baselines/hydee.hpp"
#include "baselines/presets.hpp"
#include "clustering/partitioner.hpp"
#include "core/spbc.hpp"
#include "mpi/machine.hpp"
#include "trace/profile.hpp"

namespace spbc::harness {

enum class ProtocolKind {
  kNative,             // unmodified library (the paper's "MPICH" bars)
  kSpbc,               // SPBC with id-based matching
  kHydee,              // HydEE baseline (centralized recovery)
  kGlobalCoordinated,  // one cluster: classic coordinated checkpointing
  kPureLogging,        // one cluster per rank (Table 1, 512-cluster row)
};

const char* protocol_name(ProtocolKind k);

/// Hardware failure domains for correlated multi-node losses (hostile
/// workload matrix; DESIGN.md §16). Geometry over PHYSICAL node ids:
///   kRack:   contiguous blocks of HostileConfig::rack_size nodes
///   kSwitch: two leaf switches; switch `s` serves every node with
///            n % 2 == s % 2
///   kPsu:    a power rail feeds node pairs {2k, 2k+1}
enum class FailureDomain { kRack, kSwitch, kPsu };

/// One correlated domain loss: every node in the domain fails, 10 ms apart,
/// inside the control plane's default correlation window
/// (ControlPlaneConfig::correlation_window, 50 ms), which therefore sees
/// them as correlated doubles.
struct DomainFailure {
  sim::Time at = 0;
  FailureDomain domain = FailureDomain::kRack;
  int index = 0;  // which rack / switch / power rail
};

/// Correlated failure domains of the hostile workload matrix (DESIGN.md
/// §16). The other hostile shapes have one home each on the sub-config
/// they act on: app_cfg.burst_*, machine.straggler_*, machine.net.partitions
/// and spbc.pfs_interference. Defaults inject nothing.
struct HostileConfig {
  // Expanded into one staggered per-node failure each; the machine's
  // default_failure_kind decides severity, so elastic suites get permanent
  // losses for free.
  std::vector<DomainFailure> domain_failures;
  int rack_size = 4;
};

struct ScenarioConfig {
  std::string app = "MiniGhost";
  int nranks = 64;
  int ranks_per_node = 8;
  int nclusters = 4;  // hierarchical protocols only
  ProtocolKind protocol = ProtocolKind::kSpbc;
  apps::AppConfig app_cfg;
  core::SpbcConfig spbc;  // also configures the HydEE baseline
  mpi::MachineConfig machine;  // nranks/ranks_per_node overwritten

  /// Cluster map: from the clustering tool (traced short run) or a block
  /// partition of nodes.
  bool use_clustering_tool = true;
  /// The clustering tool's objective (min-total or balanced logged bytes).
  clustering::Objective partition = clustering::Objective::kMinTotalLogged;
  int trace_iters = 3;  // iterations of the traced clustering run

  /// Failure injection.
  bool inject_failure = false;
  sim::Time failure_at = 0;  // absolute virtual time
  int victim_rank = 0;
  /// Additional failures (absolute virtual time, victim rank) injected on
  /// top of the primary one — multi-loss redundancy probes kill a second
  /// in-group node while the first recovery is still in flight.
  std::vector<std::pair<sim::Time, int>> extra_failures;
  /// Process-only failures (mpi::FailureKind::kProcessOnly): the cluster's
  /// processes die and restart, but node-local storage survives — the
  /// benign failure class the control plane's estimator must separate from
  /// storage-destroying node losses. No bench injects them;
  /// test_control_plane does, to check that separation.
  std::vector<std::pair<sim::Time, int>> process_only_failures;
  /// Silent fragment losses (absolute virtual time, selection salt): at each
  /// time one live staged fragment — picked deterministically by the salt —
  /// is corrupted without killing anything. Only background scrubbing or a
  /// restore-path audit discovers it. Requires an SPBC-family protocol.
  std::vector<std::pair<sim::Time, uint64_t>> silent_losses;

  /// Correlated failure domains (see HostileConfig); a default value
  /// changes nothing.
  HostileConfig hostile;
};

struct ScenarioResult {
  mpi::RunResult run;
  /// When the application ended (RunResult::app_end_time). A background
  /// drain that outlives the app shows in run.finish_time, not here.
  sim::Time elapsed = 0;
  std::map<int, uint64_t> checksums;  // validate mode only
  trace::MachineProfile profile;
  std::vector<mpi::RecoveryRecord> recoveries;
  std::vector<int> cluster_of;

  // Per-rank log growth rate in MB/s of virtual time (Table 1).
  std::vector<double> log_rate_mb_s;
  double avg_log_rate_mb_s = 0;
  double max_log_rate_mb_s = 0;
  uint64_t checkpoints = 0;

  // Log reclamation (gc_logs runs): cumulative bytes dropped at commit and
  // the highest per-rank live log footprint observed.
  uint64_t log_bytes_reclaimed = 0;
  uint64_t log_retained_hwm = 0;

  // Multi-level staging pipeline counters (zeros when staging is off):
  // per-level bytes on the wire, restore sources, re-protection, scrubbing
  // and PFS interference.
  ckpt::StagingStats staging;

  // Checkpoint data reduction (store-level): logical capture bytes vs what
  // the store kept after delta encoding + compression, and how many captures
  // were delta (non-full). raw == stored when reduction is off.
  uint64_t ckpt_raw_bytes = 0;
  uint64_t ckpt_stored_bytes = 0;
  uint64_t delta_snapshots = 0;

  /// Corrupt fragments still believed live when the run ended (undetected
  /// silent losses; scrub-coverage gates require 0).
  uint64_t corrupt_live_fragments = 0;

  // Elastic-recovery counters (permanent node losses; zeros otherwise):
  // retired nodes whose residents were rebound onto a pooled spare, retired
  // nodes absorbed by packing survivors (pool exhausted), and sends dropped
  // at dead-rank tombstones instead of spinning at a silent rendezvous.
  uint64_t spare_swaps = 0;
  uint64_t shrink_restarts = 0;
  uint64_t tombstone_drops = 0;

  // Per-hostile-shape accounting (zeros when the shape is off; PFS
  // interference is counted in `staging`).
  sim::Time straggler_stall_time = 0;    // extra compute on straggler nodes
  uint64_t partition_msgs_held = 0;      // messages held across a partition
  sim::Time partition_stall_time = 0;    // total extra in-fabric delay
  uint64_t domain_failures_injected = 0; // per-node failures from domains

  // Control-plane telemetry (zeros when the control plane is disabled).
  // Includes the online repartitioner's flip counters (control.repartitions,
  // control.ranks_migrated).
  core::ControlPlaneStats control;

  /// Normalized rework time of the first recovery (Fig. 5 / Fig. 6): time to
  /// re-execute the lost work divided by the failure-free time that work
  /// originally took.
  double normalized_rework() const;
};

/// Section 6.1's traced run: the app runs natively for `trace_iters`
/// iterations on the scenario's machine, and its traffic is the clustering
/// tool's input graph.
clustering::CommGraph trace_comm_graph(const ScenarioConfig& cfg);

/// Computes the cluster map for a scenario: the protocol's fixed map, a
/// block partition, or `cfg.partition` applied to trace_comm_graph(cfg).
std::vector<int> compute_cluster_map(const ScenarioConfig& cfg);

/// Runs the scenario once on the given cluster map. The machine, protocol
/// and workload are built fresh; the config's failure settings apply.
ScenarioResult run_scenario(const ScenarioConfig& cfg,
                            const std::vector<int>& cluster_of);

/// Runs the scenario once on compute_cluster_map(cfg).
ScenarioResult run_scenario(const ScenarioConfig& cfg);

/// Convenience: failure-free run, returning elapsed virtual time (used to
/// place the failure point and to normalize).
ScenarioResult run_failure_free(ScenarioConfig cfg);

/// Convenience: run with a failure injected at `frac` of the failure-free
/// time `t_ff` (computed by the caller, typically cached).
ScenarioResult run_with_failure(ScenarioConfig cfg, sim::Time t_ff, double frac);

}  // namespace spbc::harness
