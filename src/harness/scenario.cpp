#include "harness/scenario.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spbc::harness {

const char* protocol_name(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kNative:
      return "MPICH";
    case ProtocolKind::kSpbc:
      return "SPBC";
    case ProtocolKind::kHydee:
      return "HydEE";
    case ProtocolKind::kGlobalCoordinated:
      return "Coordinated";
    case ProtocolKind::kPureLogging:
      return "MessageLogging";
  }
  return "?";
}

double ScenarioResult::normalized_rework() const {
  if (recoveries.empty()) return 0.0;
  const mpi::RecoveryRecord& rec = recoveries.front();
  if (!rec.complete()) return 0.0;
  sim::Time lost = rec.failure_time - rec.checkpoint_time;
  if (lost <= 0) return 0.0;
  return rec.rework() / lost;
}

namespace {

// Leaf switches of the kSwitch failure-domain geometry.
constexpr int kSwitchCount = 2;
// Gap between the node failures of one domain loss: inside the control
// plane's default correlation window (50 ms).
constexpr sim::Time kDomainStagger = 0.01;

mpi::MachineConfig machine_config_for(const ScenarioConfig& cfg) {
  mpi::MachineConfig mc = cfg.machine;
  mc.nranks = cfg.nranks;
  mc.ranks_per_node = cfg.ranks_per_node;
  if (cfg.protocol == ProtocolKind::kPureLogging) mc.enforce_node_colocation = false;
  return mc;
}

/// PHYSICAL nodes of one failure domain (HostileConfig geometry).
std::vector<int> domain_nodes(const HostileConfig& h, int nodes,
                              const DomainFailure& d) {
  std::vector<int> out;
  switch (d.domain) {
    case FailureDomain::kRack: {
      int lo = d.index * h.rack_size;
      int hi = std::min(nodes, lo + h.rack_size);
      for (int n = lo; n < hi; ++n) out.push_back(n);
      break;
    }
    case FailureDomain::kSwitch: {
      for (int n = 0; n < nodes; ++n)
        if (n % kSwitchCount == d.index % kSwitchCount) out.push_back(n);
      break;
    }
    case FailureDomain::kPsu: {
      int base = d.index * 2;
      if (base < nodes) out.push_back(base);
      if (base + 1 < nodes) out.push_back(base + 1);
      break;
    }
  }
  return out;
}

std::unique_ptr<mpi::ProtocolHooks> make_protocol(const ScenarioConfig& cfg) {
  switch (cfg.protocol) {
    case ProtocolKind::kNative:
      return baselines::make_native();
    case ProtocolKind::kSpbc:
    case ProtocolKind::kGlobalCoordinated:
    case ProtocolKind::kPureLogging:
      return std::make_unique<core::SpbcProtocol>(cfg.spbc);
    case ProtocolKind::kHydee: {
      return std::make_unique<baselines::HydeeProtocol>(cfg.spbc);
    }
  }
  SPBC_UNREACHABLE("protocol kind");
}

/// Section 6.1's traced run: hands the native run's traffic graph to `use`
/// while the traced machine is still alive. Partitioning inside that window
/// leaves the machine's freed heap whole for the full-size run that follows:
/// spbc_bench scale-4k (4,096 ranks) peaks at 109.5 MB RSS this way and at
/// 131.5 MB when the partitioner runs after the machine is gone.
template <class Use>
auto with_traced_graph(const ScenarioConfig& cfg, Use&& use) {
  ScenarioConfig trace_cfg = cfg;
  trace_cfg.protocol = ProtocolKind::kNative;
  mpi::Machine machine(machine_config_for(trace_cfg), baselines::make_native());
  machine.set_cluster_of(baselines::single_cluster_map(cfg.nranks));
  const apps::AppInfo& info = apps::find_app(cfg.app);
  apps::AppConfig app_cfg = cfg.app_cfg;
  app_cfg.iters = cfg.trace_iters;
  machine.launch([&info, app_cfg](mpi::Rank& r) { info.main(r, app_cfg); });
  mpi::RunResult rr = machine.run();
  SPBC_ASSERT_MSG(rr.completed, "clustering trace run did not complete");
  return use(clustering::CommGraph::from_traffic(cfg.nranks, machine.traffic()));
}

}  // namespace

clustering::CommGraph trace_comm_graph(const ScenarioConfig& cfg) {
  return with_traced_graph(cfg, [](clustering::CommGraph graph) { return graph; });
}

std::vector<int> compute_cluster_map(const ScenarioConfig& cfg) {
  switch (cfg.protocol) {
    case ProtocolKind::kNative:
    case ProtocolKind::kGlobalCoordinated:
      return baselines::single_cluster_map(cfg.nranks);
    case ProtocolKind::kPureLogging:
      return baselines::per_rank_cluster_map(cfg.nranks);
    default:
      break;
  }
  sim::Topology topo = sim::Topology::for_ranks(cfg.nranks, cfg.ranks_per_node);
  SPBC_ASSERT_MSG(cfg.nclusters >= 1 && cfg.nclusters <= topo.nodes(),
                  "nclusters=" << cfg.nclusters << " with " << topo.nodes()
                               << " nodes");
  if (!cfg.use_clustering_tool) {
    clustering::CommGraph empty(cfg.nranks);
    clustering::Partitioner part(empty, topo);
    return part.block_partition(cfg.nclusters).cluster_of;
  }
  return with_traced_graph(cfg, [&](const clustering::CommGraph& graph) {
    clustering::Partitioner part(graph, topo);
    return part.partition(cfg.nclusters, cfg.partition).cluster_of;
  });
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  return run_scenario(cfg, compute_cluster_map(cfg));
}

ScenarioResult run_scenario(const ScenarioConfig& cfg,
                            const std::vector<int>& cluster_of) {
  mpi::Machine machine(machine_config_for(cfg), make_protocol(cfg));
  machine.set_cluster_of(cluster_of);

  const apps::AppInfo& info = apps::find_app(cfg.app);
  std::map<int, uint64_t> checksums;
  apps::AppConfig app_cfg = cfg.app_cfg;
  if (app_cfg.validate && app_cfg.checksums == nullptr)
    app_cfg.checksums = &checksums;
  machine.launch([&info, app_cfg](mpi::Rank& r) { info.main(r, app_cfg); });

  if (cfg.inject_failure) {
    SPBC_ASSERT_MSG(cfg.failure_at > 0, "inject_failure requires failure_at > 0");
    machine.inject_failure(cfg.failure_at, cfg.victim_rank);
  }
  for (const auto& [at, victim] : cfg.extra_failures) {
    SPBC_ASSERT_MSG(at > 0, "extra failures require a positive time");
    machine.inject_failure(at, victim);
  }
  for (const auto& [at, victim] : cfg.process_only_failures) {
    SPBC_ASSERT_MSG(at > 0, "process-only failures require a positive time");
    machine.inject_failure(at, victim, mpi::FailureKind::kProcessOnly);
  }
  if (!cfg.silent_losses.empty()) {
    auto* spbc = dynamic_cast<core::SpbcProtocol*>(&machine.protocol());
    SPBC_ASSERT_MSG(spbc != nullptr,
                    "silent losses require an SPBC-family protocol");
    for (const auto& [at, salt] : cfg.silent_losses) {
      SPBC_ASSERT_MSG(at > 0, "silent losses require a positive time");
      const uint64_t s = salt;
      machine.engine().at_serial(
          at, [spbc, s] { spbc->staging_mut().corrupt_one_fragment(s); });
    }
  }

  // Correlated failure domains: every node of the domain goes down, each
  // node's first resident rank the injection victim, staggered inside the
  // control plane's correlation window so its correlated-double estimator
  // sees the losses as one domain event. Severity follows the machine's
  // default_failure_kind (elastic suites therefore get permanent losses).
  uint64_t domain_injected = 0;
  for (const DomainFailure& d : cfg.hostile.domain_failures) {
    SPBC_ASSERT_MSG(d.at > 0, "domain failures require a positive time");
    int i = 0;
    for (int node : domain_nodes(cfg.hostile, machine.topology().nodes(), d)) {
      int victim = node * cfg.ranks_per_node;
      if (victim >= cfg.nranks) continue;
      machine.inject_failure(d.at + i * kDomainStagger, victim);
      ++domain_injected;
      ++i;
    }
  }

  ScenarioResult res;
  res.cluster_of = cluster_of;
  res.domain_failures_injected = domain_injected;
  res.run = machine.run();
  res.elapsed = res.run.app_end_time;
  res.checksums = std::move(checksums);
  res.profile = trace::profile_machine(machine);
  res.recoveries = machine.recoveries();

  res.log_rate_mb_s.resize(static_cast<size_t>(cfg.nranks), 0.0);
  double sum = 0;
  for (int r = 0; r < cfg.nranks; ++r) {
    double rate = res.elapsed > 0
                      ? static_cast<double>(machine.rank(r).profile().bytes_logged) /
                            1.0e6 / res.elapsed
                      : 0.0;
    res.log_rate_mb_s[static_cast<size_t>(r)] = rate;
    sum += rate;
    res.max_log_rate_mb_s = std::max(res.max_log_rate_mb_s, rate);
  }
  res.avg_log_rate_mb_s = sum / cfg.nranks;
  for (int r = 0; r < cfg.nranks; ++r)
    res.straggler_stall_time += machine.rank(r).profile().time_straggler_stall;
  res.partition_msgs_held = machine.network().partition_msgs_held();
  res.partition_stall_time = machine.network().partition_stall_time();
  res.spare_swaps = machine.spare_swaps();
  res.shrink_restarts = machine.shrink_restarts();
  res.tombstone_drops = machine.tombstone_drops();
  if (auto* spbc = dynamic_cast<core::SpbcProtocol*>(&machine.protocol())) {
    res.checkpoints = spbc->checkpoints_taken();
    res.staging = spbc->staging().stats();
    res.corrupt_live_fragments = spbc->staging().corrupt_live_fragments();
    res.ckpt_raw_bytes = spbc->store().total_raw_bytes();
    res.ckpt_stored_bytes = spbc->store().total_bytes_written();
    res.delta_snapshots = spbc->store().delta_snapshots();
    res.control = spbc->control_plane().stats();
    for (int r = 0; r < cfg.nranks; ++r) {
      res.log_bytes_reclaimed += spbc->log_of(r).bytes_reclaimed();
      res.log_retained_hwm =
          std::max(res.log_retained_hwm, spbc->log_of(r).bytes_retained_hwm());
    }
  }
  return res;
}

ScenarioResult run_failure_free(ScenarioConfig cfg) {
  cfg.inject_failure = false;
  return run_scenario(cfg);
}

ScenarioResult run_with_failure(ScenarioConfig cfg, sim::Time t_ff, double frac) {
  SPBC_ASSERT(t_ff > 0 && frac > 0 && frac < 1);
  cfg.inject_failure = true;
  cfg.failure_at = t_ff * frac;
  return run_scenario(cfg);
}

}  // namespace spbc::harness
