// Parameterized property sweeps over (app x cluster count x failure point):
// the five invariants of DESIGN.md Section 5 that involve whole runs —
// recovery equivalence, failure containment, replay order, suppression
// accounting, and log-volume consistency with the traffic matrix.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "ckpt/staging.hpp"
#include "clustering/comm_graph.hpp"
#include "core/spbc.hpp"
#include "failure_matrix.hpp"
#include "harness/scenario.hpp"
#include "util/rng.hpp"

namespace spbc {
namespace {

using Param = std::tuple<std::string, int, double>;  // app, clusters, failure frac

class RecoveryProperty : public ::testing::TestWithParam<Param> {};

harness::ScenarioConfig config_for(const std::string& app, int nclusters) {
  harness::ScenarioConfig cfg;
  cfg.app = app;
  cfg.nranks = 16;
  cfg.ranks_per_node = 2;
  cfg.nclusters = nclusters;
  cfg.protocol = harness::ProtocolKind::kSpbc;
  cfg.app_cfg.iters = 6;
  cfg.app_cfg.validate = true;
  cfg.app_cfg.msg_scale = 0.02;
  cfg.app_cfg.compute_scale = 0.02;
  cfg.spbc.checkpoint_every = 2;
  cfg.machine.abort_on_deadlock = false;
  cfg.use_clustering_tool = false;
  return cfg;
}

TEST_P(RecoveryProperty, EquivalenceAndContainment) {
  auto [app, nclusters, frac] = GetParam();
  harness::ScenarioConfig cfg = config_for(app, nclusters);
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed) << app;
  harness::ScenarioResult rec = harness::run_with_failure(cfg, ff.elapsed, frac);
  ASSERT_TRUE(rec.run.completed)
      << app << " k=" << nclusters << " frac=" << frac
      << " deadlocked=" << rec.run.deadlocked;

  // Invariant 3: no loss, no duplication — identical results.
  EXPECT_EQ(rec.checksums, ff.checksums) << app << " k=" << nclusters;

  // Invariant 4: containment — the recovery record names exactly the ranks
  // of one cluster.
  ASSERT_FALSE(rec.recoveries.empty());
  const mpi::RecoveryRecord& r0 = rec.recoveries.front();
  EXPECT_TRUE(r0.complete());
  int failed = r0.failed_cluster;
  size_t cluster_size = 0;
  for (int c : rec.cluster_of)
    if (c == failed) ++cluster_size;
  EXPECT_EQ(r0.target_ops.size(), cluster_size);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecoveryProperty,
    ::testing::Combine(::testing::Values("MiniGhost", "AMG", "GTC", "MILC"),
                       ::testing::Values(2, 4, 8),
                       ::testing::Values(0.35, 0.7)));

class FailurePointSweep : public ::testing::TestWithParam<double> {};

// Invariant: recovery works regardless of where in the run the failure
// lands — before the first checkpoint, right after one, near the end.
TEST_P(FailurePointSweep, RingAppAnyFailurePoint) {
  double frac = GetParam();
  harness::ScenarioConfig cfg = config_for("MiniGhost", 4);
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  harness::ScenarioResult rec = harness::run_with_failure(cfg, ff.elapsed, frac);
  ASSERT_TRUE(rec.run.completed) << "frac=" << frac;
  EXPECT_EQ(rec.checksums, ff.checksums) << "frac=" << frac;
}

INSTANTIATE_TEST_SUITE_P(Fracs, FailurePointSweep,
                         ::testing::Values(0.15, 0.3, 0.5, 0.65, 0.85));

// Invariant 5/6 accounting: the protocol's logged volume equals the
// inter-cluster traffic the clustering graph predicts.
TEST(LogVolume, MatchesTrafficMatrixCut) {
  harness::ScenarioConfig cfg = config_for("MiniGhost", 4);
  cfg.app_cfg.validate = false;
  cfg.protocol = harness::ProtocolKind::kNative;
  cfg.machine.record_send_trace = false;

  // Native run collects the traffic matrix.
  mpi::MachineConfig mc = cfg.machine;
  mc.nranks = cfg.nranks;
  mc.ranks_per_node = cfg.ranks_per_node;
  mpi::Machine native(mc, baselines::make_native());
  std::vector<int> map = harness::compute_cluster_map(
      [] {
        harness::ScenarioConfig c = config_for("MiniGhost", 4);
        c.app_cfg.validate = false;
        return c;
      }());
  native.set_cluster_of(map);
  const apps::AppInfo& info = apps::find_app("MiniGhost");
  apps::AppConfig acfg = cfg.app_cfg;
  native.launch([&info, acfg](mpi::Rank& r) { info.main(r, acfg); });
  ASSERT_TRUE(native.run().completed);
  clustering::CommGraph g =
      clustering::CommGraph::from_traffic(cfg.nranks, native.traffic());
  uint64_t predicted = g.logged_bytes(map);

  // SPBC run with the same map must log exactly that volume.
  mpi::Machine spbc_m(mc, std::make_unique<core::SpbcProtocol>(cfg.spbc));
  spbc_m.set_cluster_of(map);
  spbc_m.launch([&info, acfg](mpi::Rank& r) { info.main(r, acfg); });
  ASSERT_TRUE(spbc_m.run().completed);
  uint64_t logged = 0;
  for (int r = 0; r < cfg.nranks; ++r)
    logged += spbc_m.rank(r).profile().bytes_logged;
  EXPECT_EQ(logged, predicted);
}

// More clusters => more (or equal) logged data (Table 1's monotone columns).
TEST(LogVolume, MonotoneInClusterCount) {
  uint64_t prev = 0;
  for (int k : {1, 2, 4, 8}) {
    harness::ScenarioConfig cfg = config_for("MiniGhost", k);
    cfg.app_cfg.validate = false;
    if (k == 1) cfg.protocol = harness::ProtocolKind::kGlobalCoordinated;
    harness::ScenarioResult res = harness::run_failure_free(cfg);
    ASSERT_TRUE(res.run.completed);
    EXPECT_GE(res.profile.bytes_logged, prev) << "k=" << k;
    prev = res.profile.bytes_logged;
  }
}

// Redundancy-liveness property: for random residency states (random write /
// node-kill sequences) and every scheme, `recoverable_without_pfs` must
// never exceed the brute-force oracle — an actual byte reconstruction (full
// copy or GF(256) Cauchy solve) from exactly what the residency
// view says is readable. Conservatism (predicate false, oracle true) is
// allowed; false liveness is not, because the protocol would then skip the
// PFS/epoch fallback and fail the restore.
TEST(LivenessOracle, NoFalseLivenessUnderRandomResidency) {
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    util::Pcg32 rng(seed, 0x0bac1e);
    ckpt::RedundancyConfig red;
    int span = 2;
    switch (rng.next_bounded(4)) {
      case 0:
        red.kind = ckpt::SchemeKind::kSingle;
        break;
      case 1:
        red.kind = ckpt::SchemeKind::kPartner;
        break;
      case 2:  // XOR over 3..5-node groups: RS(G-1, 1)
        red.kind = ckpt::SchemeKind::kReedSolomon;
        red.rs_k = 2 + static_cast<int>(rng.next_bounded(3));
        red.rs_m = 1;
        span = red.rs_k + 1;
        break;
      default:
        red.kind = ckpt::SchemeKind::kReedSolomon;
        red.rs_k = 2 + static_cast<int>(rng.next_bounded(5));
        red.rs_m = 1 + static_cast<int>(rng.next_bounded(3));
        span = red.rs_k + red.rs_m;
        break;
    }
    const int nodes = span + static_cast<int>(rng.next_bounded(4));

    mpi::MachineConfig mc;
    mc.nranks = nodes;
    mc.ranks_per_node = 1;
    auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
    mpi::Machine m(mc, std::move(proto));
    std::vector<int> clusters(static_cast<size_t>(nodes));
    for (int n = 0; n < nodes; ++n) clusters[static_cast<size_t>(n)] = n / 2;
    m.set_cluster_of(clusters);

    ckpt::StagingConfig sc;
    sc.level = ckpt::StorageLevel::kPartner;  // the chain ends at redundancy
    sc.async = true;
    sc.redundancy = red;
    ckpt::StagingArea area(sc);
    area.attach(m);

    // Random mutation sequence: writes (including rewrites after a node
    // came back) interleaved with node kills, one per engine step of
    // `kStep`; audit liveness vs the oracle half a step later, once the
    // step's placements and re-protections have landed, across every
    // (rank, epoch).
    constexpr sim::Time kStep = 1e-2;
    for (int op = 0; op < 24; ++op) {
      const uint32_t action = rng.next_bounded(3);
      const int subject = static_cast<int>(
          rng.next_bounded(static_cast<uint32_t>(nodes)));
      const uint64_t epoch = action == 0 ? 0 : 1 + rng.next_bounded(2);
      const sim::Time at = kStep * (op + 1);
      m.engine().at(at, [&area, action, subject, epoch] {
        if (action == 0)
          area.invalidate_node(subject);
        else
          area.write(subject, epoch, 512);
      });
      m.engine().at(at + kStep / 2, [&area, &red, nodes, seed, op] {
        for (int r = 0; r < nodes; ++r) {
          for (uint64_t e = 1; e <= 2; ++e) {
            const bool live = area.scheme().recoverable_without_pfs(r, e, area);
            if (!live) continue;
            EXPECT_TRUE(testing::oracle_recoverable(area, red, nodes, r, e))
                << "scheme " << testing::scheme_name(red.kind)
                << " claims liveness the oracle refutes: seed=" << seed
                << " op=" << op << " rank=" << r << " epoch=" << e;
          }
        }
      });
    }
    EXPECT_TRUE(m.run().completed) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace spbc
