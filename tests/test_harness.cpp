// Tests: the experiment harness — protocol/cluster wiring, clustering-tool
// integration, measurement plumbing, and the noise model the benches rely on.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <type_traits>

#include "harness/scenario.hpp"

namespace spbc {
namespace {

harness::ScenarioConfig small_cfg() {
  harness::ScenarioConfig cfg;
  cfg.app = "MiniGhost";
  cfg.nranks = 16;
  cfg.ranks_per_node = 2;
  cfg.nclusters = 4;
  cfg.app_cfg.iters = 4;
  cfg.app_cfg.msg_scale = 0.02;
  cfg.app_cfg.compute_scale = 0.02;
  cfg.spbc.checkpoint_every = 2;
  cfg.use_clustering_tool = false;
  return cfg;
}

TEST(Harness, ProtocolNames) {
  EXPECT_STREQ(harness::protocol_name(harness::ProtocolKind::kNative), "MPICH");
  EXPECT_STREQ(harness::protocol_name(harness::ProtocolKind::kSpbc), "SPBC");
  EXPECT_STREQ(harness::protocol_name(harness::ProtocolKind::kHydee), "HydEE");
}

TEST(Harness, ClusterMapsByProtocol) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.protocol = harness::ProtocolKind::kNative;
  auto native = harness::compute_cluster_map(cfg);
  EXPECT_EQ(std::set<int>(native.begin(), native.end()).size(), 1u);

  cfg.protocol = harness::ProtocolKind::kGlobalCoordinated;
  auto global = harness::compute_cluster_map(cfg);
  EXPECT_EQ(std::set<int>(global.begin(), global.end()).size(), 1u);

  cfg.protocol = harness::ProtocolKind::kPureLogging;
  auto pure = harness::compute_cluster_map(cfg);
  EXPECT_EQ(std::set<int>(pure.begin(), pure.end()).size(), 16u);

  cfg.protocol = harness::ProtocolKind::kSpbc;
  auto spbc = harness::compute_cluster_map(cfg);
  EXPECT_EQ(std::set<int>(spbc.begin(), spbc.end()).size(), 4u);
}

TEST(Harness, ClusteringToolMapRespectsNodes) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.protocol = harness::ProtocolKind::kSpbc;
  cfg.use_clustering_tool = true;
  auto map = harness::compute_cluster_map(cfg);
  ASSERT_EQ(map.size(), 16u);
  for (int r = 0; r < 16; r += 2)
    EXPECT_EQ(map[static_cast<size_t>(r)], map[static_cast<size_t>(r) + 1])
        << "node pair " << r;
  EXPECT_EQ(std::set<int>(map.begin(), map.end()).size(), 4u);
}

TEST(Harness, LogRatesPopulated) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.protocol = harness::ProtocolKind::kSpbc;
  harness::ScenarioResult res = harness::run_failure_free(cfg);
  ASSERT_TRUE(res.run.completed);
  EXPECT_EQ(res.log_rate_mb_s.size(), 16u);
  EXPECT_GT(res.max_log_rate_mb_s, 0.0);
  EXPECT_GE(res.max_log_rate_mb_s, res.avg_log_rate_mb_s);
  EXPECT_GT(res.checkpoints, 0u);
}

TEST(Harness, NativeRunsLogNothing) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.protocol = harness::ProtocolKind::kNative;
  harness::ScenarioResult res = harness::run_failure_free(cfg);
  ASSERT_TRUE(res.run.completed);
  EXPECT_EQ(res.profile.bytes_logged, 0u);
  EXPECT_DOUBLE_EQ(res.max_log_rate_mb_s, 0.0);
}

TEST(Harness, NormalizedReworkZeroWithoutRecovery) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.protocol = harness::ProtocolKind::kSpbc;
  harness::ScenarioResult res = harness::run_failure_free(cfg);
  EXPECT_DOUBLE_EQ(res.normalized_rework(), 0.0);
}

TEST(Harness, RunWithFailureProducesRecovery) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.protocol = harness::ProtocolKind::kSpbc;
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  harness::ScenarioResult rec = harness::run_with_failure(cfg, ff.elapsed, 0.5);
  ASSERT_TRUE(rec.run.completed);
  ASSERT_EQ(rec.recoveries.size(), 1u);
  EXPECT_GT(rec.normalized_rework(), 0.0);
  EXPECT_GE(rec.elapsed, ff.elapsed);  // a failure never speeds the run up
}

TEST(Harness, NoiseIsDeterministicPerSeed) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.protocol = harness::ProtocolKind::kNative;
  cfg.machine.compute_noise_frac = 0.1;
  cfg.machine.seed = 42;
  harness::ScenarioResult a = harness::run_failure_free(cfg);
  harness::ScenarioResult b = harness::run_failure_free(cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  cfg.machine.seed = 43;
  harness::ScenarioResult c = harness::run_failure_free(cfg);
  EXPECT_NE(a.elapsed, c.elapsed);
}

TEST(Harness, NoiseLengthensRuns) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.protocol = harness::ProtocolKind::kNative;
  cfg.machine.compute_noise_frac = 0.0;
  harness::ScenarioResult quiet = harness::run_failure_free(cfg);
  cfg.machine.compute_noise_frac = 0.2;
  harness::ScenarioResult noisy = harness::run_failure_free(cfg);
  EXPECT_GT(noisy.elapsed, quiet.elapsed);
}

TEST(Harness, RecoveryEquivalenceHoldsUnderNoise) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.protocol = harness::ProtocolKind::kSpbc;
  cfg.app_cfg.validate = true;
  cfg.machine.abort_on_deadlock = false;
  cfg.machine.compute_noise_frac = 0.15;
  cfg.machine.net.jitter_frac = 0.3;
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  harness::ScenarioResult rec = harness::run_with_failure(cfg, ff.elapsed, 0.6);
  ASSERT_TRUE(rec.run.completed);
  EXPECT_EQ(rec.checksums, ff.checksums);
}

// The clustering objective reaches the map: AMG at this size is one of the
// shapes where the balanced and min-total objectives cut differently.
TEST(Harness, PartitionObjectiveReachesClusterMap) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.app = "AMG";
  cfg.use_clustering_tool = true;
  cfg.partition = clustering::Objective::kBalancedLogged;
  const clustering::CommGraph graph = harness::trace_comm_graph(cfg);
  clustering::Partitioner part(graph,
                               sim::Topology::for_ranks(cfg.nranks, cfg.ranks_per_node));
  const std::vector<int> balanced =
      part.partition(cfg.nclusters, clustering::Objective::kBalancedLogged).cluster_of;
  ASSERT_NE(balanced,
            part.partition(cfg.nclusters, clustering::Objective::kMinTotalLogged)
                .cluster_of);
  EXPECT_EQ(harness::compute_cluster_map(cfg), balanced);
}

// run_scenario(cfg) is run_scenario(cfg, compute_cluster_map(cfg)), down to
// the last bit of every staging counter, with failures and silent losses on.
TEST(Harness, ExplicitMapRunMatchesComputedMapRun) {
  harness::ScenarioConfig cfg = small_cfg();
  cfg.protocol = harness::ProtocolKind::kSpbc;
  cfg.use_clustering_tool = true;
  cfg.app_cfg.validate = true;
  cfg.spbc.storage = ckpt::StorageLevel::kPfs;
  cfg.spbc.async_staging = true;
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  // Timed against the engine's end, drain included: at 0.4 of the app's
  // end no fragment has landed yet for the silent loss to pick.
  const sim::Time t_end = ff.run.finish_time;
  cfg.extra_failures = {{t_end * 0.6, 5}};
  cfg.silent_losses = {{t_end * 0.4, 0x5eed}};

  harness::ScenarioResult implicit = harness::run_scenario(cfg);
  harness::ScenarioResult expl =
      harness::run_scenario(cfg, harness::compute_cluster_map(cfg));
  ASSERT_TRUE(implicit.run.completed);
  ASSERT_TRUE(expl.run.completed);
  EXPECT_EQ(implicit.staging.silent_losses_injected, 1u);
  EXPECT_FALSE(implicit.recoveries.empty());

  EXPECT_EQ(expl.cluster_of, implicit.cluster_of);
  EXPECT_EQ(std::memcmp(&expl.elapsed, &implicit.elapsed, sizeof(sim::Time)), 0);
  EXPECT_EQ(expl.checksums, implicit.checksums);
  EXPECT_EQ(expl.recoveries.size(), implicit.recoveries.size());
  static_assert(std::is_trivially_copyable_v<ckpt::StagingStats>);
  EXPECT_EQ(std::memcmp(&expl.staging, &implicit.staging, sizeof(ckpt::StagingStats)),
            0);
}

}  // namespace
}  // namespace spbc
