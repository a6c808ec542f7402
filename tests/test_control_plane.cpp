// Self-tuning reliability control plane (core/control_plane.hpp): the
// sliding-window failure-rate estimator, the generalized Young/Daly interval
// planner, escalation hysteresis, and the integrated behavior — adaptive
// checkpoint pacing, background scrub repair, bit-identical trajectories
// across engine shard/thread layouts.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/control_plane.hpp"
#include "core/spbc.hpp"
#include "harness/scenario.hpp"
#include "mpi/machine.hpp"
#include "util/rng.hpp"

namespace spbc {
namespace {

// ---------------------------------------------------------------------------
// RateEstimator
// ---------------------------------------------------------------------------

TEST(RateEstimator, ReportsPriorUntilMinSamples) {
  core::RateEstimator est(/*window=*/8, /*min_samples=*/3, /*prior=*/42.0);
  EXPECT_DOUBLE_EQ(est.mtbf(), 42.0);
  est.note_event(5.0);
  EXPECT_DOUBLE_EQ(est.mtbf(), 42.0);
  est.note_event(10.0);
  EXPECT_DOUBLE_EQ(est.mtbf(), 42.0);
  est.note_event(15.0);  // third gap: the observed rate takes over
  EXPECT_DOUBLE_EQ(est.mtbf(), 5.0);
}

TEST(RateEstimator, ConstantGapsConvergeExactly) {
  core::RateEstimator est(/*window=*/16, /*min_samples=*/2, /*prior=*/100.0);
  double t = 0;
  for (int i = 0; i < 40; ++i) est.note_event(t += 7.5);
  EXPECT_DOUBLE_EQ(est.mtbf(), 7.5);
  EXPECT_EQ(est.samples(), 16);  // window bounded
}

TEST(RateEstimator, StepChangeReconvergesWithinWindowEvents) {
  // A step in the true rate must be fully absorbed after `window` further
  // events — the bounded re-convergence the control plane relies on.
  const int kWindow = 8;
  core::RateEstimator est(kWindow, /*min_samples=*/2, /*prior=*/1.0);
  double t = 0;
  for (int i = 0; i < 20; ++i) est.note_event(t += 10.0);
  EXPECT_DOUBLE_EQ(est.mtbf(), 10.0);
  // MTBF collapses 10 -> 1. Strictly monotone convergence toward the new
  // rate, and exact after kWindow events.
  double prev = est.mtbf();
  for (int i = 0; i < kWindow; ++i) {
    est.note_event(t += 1.0);
    EXPECT_LT(est.mtbf(), prev);
    prev = est.mtbf();
  }
  EXPECT_DOUBLE_EQ(est.mtbf(), 1.0);
}

// ---------------------------------------------------------------------------
// Interval planner: generalized Young/Daly against the storage cost model
// ---------------------------------------------------------------------------

// Snapshot size the planner assumes until a real write is seen.
constexpr uint64_t kSnapshotHint = 1 << 20;

core::ControlPlaneConfig enabled_config() {
  core::ControlPlaneConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(ControlPlane, StaticMtbfConvergesToClosedFormYoungDaly) {
  // Exponential inter-failure times at a fixed true MTBF, fixed seed: the
  // computed LOCAL interval must land within 10% of the closed-form optimum
  // sqrt(2 * C * MTBF) for the true rate.
  const double kTrueMtbf = 5.0;
  core::ControlPlaneConfig cfg = enabled_config();
  ckpt::StorageCostModel model;
  core::ControlPlane cp(cfg, model);

  util::Pcg32 rng(123, 456);
  double t = 0;
  for (int i = 0; i < 256; ++i) {
    const double u = (rng.next_u32() + 0.5) / 4294967296.0;  // uniform (0,1)
    t += -kTrueMtbf * std::log(1.0 - u);
    cp.note_failure(t, /*storage_lost=*/true, /*node=*/i % 7);
  }
  const double c = model.write_time(ckpt::StorageLevel::kLocal, kSnapshotHint);
  const double closed_form = std::sqrt(2.0 * c * kTrueMtbf);
  EXPECT_NEAR(cp.local_interval(), closed_form, 0.10 * closed_form);

  // Constant gaps converge exactly (the estimator mean is the gap itself).
  core::ControlPlane exact(cfg, model);
  t = 0;
  for (int i = 0; i < 80; ++i)
    exact.note_failure(t += kTrueMtbf, true, i % 7);
  EXPECT_DOUBLE_EQ(exact.local_interval(), closed_form);
}

TEST(ControlPlane, StepChangeRetunesTheIntervalWithinWindow) {
  core::ControlPlaneConfig cfg = enabled_config();
  ckpt::StorageCostModel model;
  core::ControlPlane cp(cfg, model);
  double t = 0;
  for (int i = 0; i < 20; ++i) cp.note_failure(t += 20.0, true, i % 5);
  const double before = cp.local_interval();
  for (int i = 0; i < core::ControlPlane::kRateWindow; ++i)
    cp.note_failure(t += 0.2, true, i % 5);
  const double c = model.write_time(ckpt::StorageLevel::kLocal, kSnapshotHint);
  // Fully re-converged: the interval is the closed form for the NEW rate
  // (tolerance only for the accumulated-sum rounding of the gap times).
  const double target = std::max(std::sqrt(2.0 * c * 0.2), cfg.min_interval);
  EXPECT_NEAR(cp.local_interval(), target, 1e-9 * target);
  EXPECT_LT(cp.local_interval(), before);
}

TEST(ControlPlane, StridesOrderByLevelCostAndPlanHonorsThem) {
  core::ControlPlaneConfig cfg = enabled_config();
  ckpt::StorageCostModel model;
  core::ControlPlane cp(cfg, model);

  const uint64_t red = cp.redundancy_stride();
  const uint64_t pfs = cp.pfs_stride();
  EXPECT_GE(red, 1u);
  EXPECT_GE(pfs, 1u);
  EXPECT_LE(pfs, 64u);  // the stride clamp
  // PFS writes are far costlier and double losses far rarer than single
  // node losses under the default model/priors, so the PFS stride must not
  // be shorter than the redundancy stride.
  EXPECT_GE(pfs, red);

  for (uint64_t e = 1; e <= 2 * pfs + 1; ++e) {
    const ckpt::LevelPlan plan = cp.plan_for_epoch(e);
    EXPECT_EQ(plan.redundancy, e % red == 0) << "epoch " << e;
    EXPECT_EQ(plan.pfs, e % pfs == 0) << "epoch " << e;
  }

  // Disabled controller: full-depth plans, static behavior untouched.
  core::ControlPlane off(core::ControlPlaneConfig{}, model);
  const ckpt::LevelPlan full = off.plan_for_epoch(3);
  EXPECT_TRUE(full.redundancy);
  EXPECT_TRUE(full.pfs);
}

TEST(ControlPlane, RarerDoubleLossesStretchThePfsStride) {
  ckpt::StorageCostModel model;
  core::ControlPlaneConfig often = enabled_config();
  often.prior_double_mtbf = 50.0;
  core::ControlPlaneConfig rare = enabled_config();
  rare.prior_double_mtbf = 5000.0;
  core::ControlPlane cp_often(often, model);
  core::ControlPlane cp_rare(rare, model);
  EXPECT_GE(cp_rare.pfs_stride(), cp_often.pfs_stride());
  EXPECT_GT(cp_rare.pfs_stride(), 1u);
}

// ---------------------------------------------------------------------------
// Escalation hysteresis (pure policy; no staging area attached)
// ---------------------------------------------------------------------------

TEST(ControlPlane, EscalatesOnCorrelatedDoublesAndCalmsDown) {
  core::ControlPlaneConfig cfg = enabled_config();
  cfg.escalation = ckpt::RedundancyConfig{ckpt::SchemeKind::kReedSolomon};
  cfg.correlation_window = 0.05;
  core::ControlPlane cp(cfg, ckpt::StorageCostModel{});

  // Pair 1: two storage losses on distinct nodes within the window.
  cp.note_failure(10.0, true, /*node=*/1);
  cp.note_failure(10.02, true, /*node=*/2);
  EXPECT_EQ(cp.stats().double_losses, 1u);
  EXPECT_FALSE(cp.escalated());

  // Same node twice is NOT a correlated double (one platform event).
  cp.note_failure(20.0, true, 3);
  cp.note_failure(20.01, true, 3);
  EXPECT_EQ(cp.stats().double_losses, 1u);

  // Outside the window: no double either.
  cp.note_failure(30.0, true, 4);
  cp.note_failure(30.2, true, 5);
  EXPECT_EQ(cp.stats().double_losses, 1u);

  // Process-only failures never count toward storage-loss pairing.
  cp.note_failure(40.0, false, 6);
  cp.note_failure(40.01, false, 7);
  EXPECT_EQ(cp.stats().double_losses, 1u);

  // Pair 2 crosses the threshold (two doubles): escalate.
  cp.note_failure(50.0, true, 1);
  cp.note_failure(50.03, true, 2);
  EXPECT_EQ(cp.stats().double_losses, 2u);
  EXPECT_TRUE(cp.escalated());
  EXPECT_EQ(cp.stats().escalations, 1u);

  // Still inside the calm period: stays escalated.
  cp.on_tick(54.0);
  EXPECT_TRUE(cp.escalated());
  // A calm period (5 s) with no further double loss: de-escalate.
  cp.on_tick(55.1);
  EXPECT_FALSE(cp.escalated());
  EXPECT_EQ(cp.stats().deescalations, 1u);
}

// ---------------------------------------------------------------------------
// Integration: adaptive pacing, scrub repair, shard/thread determinism
// ---------------------------------------------------------------------------

harness::ScenarioConfig controller_scenario() {
  harness::ScenarioConfig cfg;
  cfg.app = "MiniGhost";
  cfg.nranks = 16;
  cfg.ranks_per_node = 2;
  cfg.nclusters = 4;
  cfg.use_clustering_tool = false;  // block partition: deterministic, cheap
  cfg.app_cfg.iters = 10;
  cfg.app_cfg.msg_scale = 0.05;
  cfg.app_cfg.compute_scale = 0.2;
  cfg.app_cfg.validate = false;
  cfg.machine.seed = 7;
  cfg.machine.net.jitter_frac = 0.0;
  cfg.machine.compute_noise_frac = 0.05;
  cfg.spbc.storage = ckpt::StorageLevel::kPfs;
  cfg.spbc.async_staging = true;
  // XOR parity over 4-node groups: RS(3, 1).
  cfg.spbc.redundancy = {ckpt::SchemeKind::kReedSolomon, 3, 1};
  // A lagging PFS: flushes crawl, so scrub repairs (which only run while an
  // epoch is short of the PFS) actually happen.
  cfg.spbc.storage_model.pfs_bw = 2.0e4;
  cfg.spbc.control.enabled = true;
  // Priors scaled to the run's sub-second virtual length: many LOCAL epochs,
  // a redundancy hop every epoch (the storage prior pushes T_red below
  // T_local, clamping the stride to 1 so fragments exist to scrub), PFS
  // flushes rare.
  cfg.spbc.control.prior_mtbf = 0.02;
  cfg.spbc.control.prior_storage_mtbf = 0.005;
  cfg.spbc.control.scrub_period = 0.004;
  return cfg;
}

TEST(ControlPlaneScenario, AdaptivePacingCheckpointsWithoutStaticSchedule) {
  harness::ScenarioConfig cfg = controller_scenario();
  cfg.spbc.checkpoint_every = 0;  // no static schedule at all
  harness::ScenarioResult res = harness::run_failure_free(cfg);
  ASSERT_TRUE(res.run.completed);
  // The time-based trigger alone must have cut epochs.
  EXPECT_GT(res.checkpoints, 0u);
  EXPECT_GT(res.control.replans, 0u);
  EXPECT_GT(res.staging.scrub_waves, 0u);
}

TEST(ControlPlaneScenario, ScrubDetectsAndRepairsInjectedSilentLosses) {
  harness::ScenarioConfig cfg = controller_scenario();
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  const sim::Time t0 = ff.elapsed;

  cfg.silent_losses = {{t0 * 0.45, 0x1111}, {t0 * 0.55, 0x2222}};
  harness::ScenarioResult res = harness::run_failure_free(cfg);
  ASSERT_TRUE(res.run.completed);
  EXPECT_EQ(res.staging.silent_losses_injected, 2u);
  EXPECT_EQ(res.staging.scrubs_detected, 2u);
  EXPECT_EQ(res.staging.scrubs_repaired, 2u);
  // Every silent loss was found before the run ended: no fragment is still
  // believed live while its bytes are gone.
  EXPECT_EQ(res.corrupt_live_fragments, 0u);
}

TEST(ControlPlaneScenario, EstimatorSeparatesProcessOnlyFromNodeLoss) {
  harness::ScenarioConfig cfg = controller_scenario();
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  const sim::Time t0 = ff.elapsed;

  cfg.inject_failure = true;
  cfg.failure_at = t0 * 0.4;
  cfg.victim_rank = 3;
  cfg.process_only_failures = {{t0 * 0.6, 9}};
  harness::ScenarioResult res = harness::run_scenario(cfg);
  ASSERT_TRUE(res.run.completed);
  EXPECT_EQ(res.control.failures, 2u);
  EXPECT_EQ(res.control.storage_losses, 1u);  // the process-only one spared
  EXPECT_EQ(res.recoveries.size(), 2u);
}

struct ShardOut {
  bool completed = false;
  sim::Time finish = 0;
  uint64_t checkpoints = 0;
  uint64_t failures = 0;
  uint64_t replans = 0;
  double local_interval = 0;
};

// Machine-level run (no harness) so the engine shard plan can vary. LOCAL-
// only redundancy keeps every bandwidth-queue reservation shard-owned, the
// precondition of the threaded executor's exact-determinism claim
// (DESIGN.md §12) — the controller's time-based trigger, estimator feed and
// snapshot-size publication are exactly what is under test.
ShardOut controller_run(int engine_shards, int engine_threads,
                        const std::vector<std::pair<sim::Time, int>>& fails) {
  const int nranks = 32, ppn = 2, nclusters = 8;
  mpi::MachineConfig mc;
  mc.nranks = nranks;
  mc.ranks_per_node = ppn;
  mc.seed = 7;
  mc.compute_noise_frac = 0.05;
  mc.net.jitter_frac = 0.2;
  mc.engine_shards = engine_shards;
  mc.engine_threads = engine_threads;

  core::SpbcConfig sc;
  sc.storage = ckpt::StorageLevel::kLocal;
  sc.async_staging = true;
  sc.redundancy.kind = ckpt::SchemeKind::kSingle;
  sc.control.enabled = true;
  sc.control.prior_mtbf = 0.2;
  auto proto = std::make_unique<core::SpbcProtocol>(sc);
  core::SpbcProtocol* p = proto.get();
  mpi::Machine m(mc, std::move(proto));

  const int nodes = nranks / ppn;
  std::vector<int> cmap(nranks);
  for (int r = 0; r < nranks; ++r) cmap[r] = (r / ppn) * nclusters / nodes;
  m.set_cluster_of(cmap);

  const apps::AppInfo& info = apps::find_app("MiniGhost");
  apps::AppConfig ac;
  ac.iters = 6;
  ac.msg_scale = 0.05;
  ac.compute_scale = 0.05;
  ac.validate = false;
  m.launch([&info, ac](mpi::Rank& r) { info.main(r, ac); });
  for (const auto& [t, victim] : fails) m.inject_failure(t, victim);

  mpi::RunResult res = m.run();
  ShardOut out;
  out.completed = res.completed;
  out.finish = res.finish_time;
  out.checkpoints = p->checkpoints_taken();
  const core::ControlPlaneStats st = p->control_plane().stats();
  out.failures = st.failures;
  out.replans = st.replans;
  out.local_interval = st.local_interval;
  return out;
}

TEST(ControlPlaneScenario, BitIdenticalAcrossShardAndThreadLayouts) {
  ShardOut ff = controller_run(1, 1, {});
  ASSERT_TRUE(ff.completed);
  const std::vector<std::pair<sim::Time, int>> fails = {
      {ff.finish * 0.35, 3}, {ff.finish * 0.6, 21}};

  ShardOut ref = controller_run(1, 1, fails);
  ASSERT_TRUE(ref.completed);
  EXPECT_EQ(ref.failures, 2u);

  struct Plan {
    int shards, threads;
    const char* name;
  };
  const std::vector<Plan> plans = {{2, 1, "shards=2"},
                                   {8, 1, "shards=8"},
                                   {0, 1, "shards=per-cluster"},
                                   {8, 4, "shards=8,threads=4"}};
  for (const Plan& pl : plans) {
    ShardOut got = controller_run(pl.shards, pl.threads, fails);
    ASSERT_TRUE(got.completed) << pl.name;
    // Bit-identical trajectory: same adaptive cut times, same estimator
    // feed, same final interval — to the last bit, not approximately.
    EXPECT_EQ(got.finish, ref.finish) << pl.name;
    EXPECT_EQ(got.checkpoints, ref.checkpoints) << pl.name;
    EXPECT_EQ(got.failures, ref.failures) << pl.name;
    EXPECT_EQ(got.replans, ref.replans) << pl.name;
    EXPECT_EQ(got.local_interval, ref.local_interval) << pl.name;
  }
}

}  // namespace
}  // namespace spbc
