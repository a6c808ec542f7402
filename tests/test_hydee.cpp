// Tests: HydEE baseline — recovery correctness and the cost of its
// centralized coordination relative to SPBC (Section 6.5).

#include <gtest/gtest.h>

#include <string>

#include "harness/scenario.hpp"

namespace spbc {
namespace {

harness::ScenarioConfig nas_config(const std::string& app) {
  harness::ScenarioConfig cfg;
  cfg.app = app;
  cfg.nranks = 16;
  cfg.ranks_per_node = 2;
  cfg.nclusters = 4;
  cfg.app_cfg.iters = 6;
  cfg.app_cfg.validate = true;
  cfg.app_cfg.msg_scale = 0.02;
  cfg.app_cfg.compute_scale = 0.02;
  cfg.spbc.checkpoint_every = 2;
  cfg.machine.abort_on_deadlock = false;
  cfg.use_clustering_tool = false;
  return cfg;
}

TEST(Hydee, RecoveryProducesCorrectResults) {
  harness::ScenarioConfig cfg = nas_config("LU");
  cfg.protocol = harness::ProtocolKind::kSpbc;
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  cfg.protocol = harness::ProtocolKind::kHydee;
  harness::ScenarioResult rec = harness::run_with_failure(cfg, ff.elapsed, 0.55);
  ASSERT_TRUE(rec.run.completed) << "deadlocked=" << rec.run.deadlocked;
  EXPECT_EQ(rec.checksums, ff.checksums);
  ASSERT_FALSE(rec.recoveries.empty());
  EXPECT_TRUE(rec.recoveries.front().complete());
}

TEST(Hydee, CoordinatorGrantsEveryReplayedMessage) {
  harness::ScenarioConfig cfg = nas_config("BT");
  cfg.protocol = harness::ProtocolKind::kHydee;
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);

  mpi::MachineConfig mc = cfg.machine;
  mc.nranks = cfg.nranks;
  mc.ranks_per_node = cfg.ranks_per_node;
  auto proto = std::make_unique<baselines::HydeeProtocol>(cfg.spbc);
  baselines::HydeeProtocol* p = proto.get();
  mpi::Machine machine(mc, std::move(proto));
  machine.set_cluster_of(harness::compute_cluster_map(cfg));
  const apps::AppInfo& info = apps::find_app(cfg.app);
  apps::AppConfig acfg = cfg.app_cfg;
  acfg.validate = false;
  machine.launch([&info, acfg](mpi::Rank& r) { info.main(r, acfg); });
  machine.inject_failure(ff.elapsed * 0.55, 0);
  EXPECT_TRUE(machine.run().completed);
  uint64_t replayed = 0;
  for (int r = 0; r < cfg.nranks; ++r) replayed += p->replayer_of(r).replayed_total();
  EXPECT_GT(replayed, 0u);
  EXPECT_EQ(p->grants_issued(), replayed);
}

TEST(Hydee, RecoveryIsSlowerThanSpbc) {
  // The headline of Section 6.5: SPBC's distributed, channel-local recovery
  // beats HydEE's coordinator-serialized replay. Use LU (many small logged
  // messages) and a coordinator with realistic latency.
  harness::ScenarioConfig cfg = nas_config("LU");
  cfg.app_cfg.validate = false;

  cfg.protocol = harness::ProtocolKind::kSpbc;
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  harness::ScenarioResult spbc = harness::run_with_failure(cfg, ff.elapsed, 0.55);
  ASSERT_TRUE(spbc.run.completed);
  ASSERT_FALSE(spbc.recoveries.empty());

  cfg.protocol = harness::ProtocolKind::kHydee;
  harness::ScenarioResult hyd = harness::run_with_failure(cfg, ff.elapsed, 0.55);
  ASSERT_TRUE(hyd.run.completed);
  ASSERT_FALSE(hyd.recoveries.empty());

  EXPECT_GT(hyd.recoveries.front().rework(), spbc.recoveries.front().rework());
}

// The coordinator is machine-global: its queue runs in serial events and
// each grant is delivered on the replaying rank's shard, so a jittered HydEE
// recovery runs the same trajectory for every execution layout.
TEST(Hydee, IdenticalAcrossShardLayouts) {
  harness::ScenarioConfig cfg = nas_config("MG");
  cfg.protocol = harness::ProtocolKind::kHydee;
  // Validate mode deposits checksums into one shared map, which worker
  // threads must not write; RecoveryProducesCorrectResults covers them.
  cfg.app_cfg.validate = false;
  cfg.machine.net.jitter_frac = 0.2;
  cfg.machine.compute_noise_frac = 0.05;
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);

  auto run = [&](int shards, int threads) {
    harness::ScenarioConfig c = cfg;
    c.machine.engine_shards = shards;
    c.machine.engine_threads = threads;
    return harness::run_with_failure(c, ff.elapsed, 0.55);
  };
  const harness::ScenarioResult ref = run(1, 1);
  ASSERT_TRUE(ref.run.completed);
  ASSERT_EQ(ref.recoveries.size(), 1u);
  EXPECT_TRUE(ref.recoveries.front().complete());
  struct Plan {
    int shards, threads;
  };
  for (const Plan& pl : {Plan{2, 1}, Plan{0, 1}, Plan{0, 4}}) {
    SCOPED_TRACE("shards=" + std::to_string(pl.shards) +
                 " threads=" + std::to_string(pl.threads));
    const harness::ScenarioResult got = run(pl.shards, pl.threads);
    ASSERT_TRUE(got.run.completed);
    EXPECT_EQ(got.elapsed, ref.elapsed);
    ASSERT_EQ(got.recoveries.size(), ref.recoveries.size());
    EXPECT_EQ(got.recoveries.front().restart_time,
              ref.recoveries.front().restart_time);
    EXPECT_EQ(got.recoveries.front().caught_up_time,
              ref.recoveries.front().caught_up_time);
  }
}

TEST(Hydee, NoPatternIdMatching) {
  baselines::HydeeProtocol p(core::SpbcConfig{});
  EXPECT_FALSE(p.pattern_matching_enabled());
}

}  // namespace
}  // namespace spbc
