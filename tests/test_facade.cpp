// Facade conformance suite (core/facade.hpp; DESIGN.md §16).
//
// Covers the drop-in adoption surface end to end: the
// need/start/route/complete lifecycle and its misuse rejection, the ported
// facade apps (MiniFE-facade, BT-facade) recovering checksum-identical
// under hostile workload shapes, bit-identity of the facade path across
// engine shard layouts (same discipline as test_engine_shard.cpp), and the
// per-shape ScenarioResult accounting (straggler stall, partition holds,
// PFS interference).
//
// SPBC_TEST_ELASTIC=1 reruns the scenario-level suites with a two-node
// spare pool and permanent node losses as the default failure kind, so the
// facade's restart path is also exercised across a spare-node hot-swap.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/facade.hpp"
#include "core/spbc.hpp"
#include "harness/scenario.hpp"
#include "mpi/machine.hpp"
#include "trace/determinism.hpp"

namespace spbc {
namespace {

using core::SPBC_ERR_BAD_ARG;
using core::SPBC_ERR_IN_SESSION;
using core::SPBC_ERR_NO_SESSION;
using core::SPBC_ERR_TRUNCATED;
using core::SPBC_ERR_UNKNOWN_REGION;
using core::SPBC_SUCCESS;

bool elastic_env() { return std::getenv("SPBC_TEST_ELASTIC") != nullptr; }

void apply_elastic_env(mpi::MachineConfig& cfg) {
  if (elastic_env()) {
    cfg.spare_nodes = 2;
    cfg.default_failure_kind = mpi::FailureKind::kNodePermanent;
  }
}

// ---- lifecycle + misuse rejection -----------------------------------------

TEST(FacadeLifecycle, NeedStartRouteCompleteAndMisuseCodes) {
  mpi::MachineConfig mc;
  mc.nranks = 4;
  mc.ranks_per_node = 2;
  mc.seed = 3;
  core::SpbcConfig sc;
  sc.checkpoint_every = 2;
  auto proto = std::make_unique<core::SpbcProtocol>(sc);
  core::SpbcProtocol* p = proto.get();
  mpi::Machine m(mc, std::move(proto));
  m.set_cluster_of({0, 0, 1, 1});

  m.launch([p](mpi::Rank& rank) {
    const int me = rank.rank();
    // Fresh start: no restart state.
    int have = -1;
    EXPECT_EQ(core::spbc_have_restart(rank, &have), SPBC_SUCCESS);
    EXPECT_EQ(have, 0);

    // Misuse outside a session.
    EXPECT_EQ(core::spbc_route(rank, "iter", &me, sizeof me, nullptr, 0),
              SPBC_ERR_NO_SESSION);
    EXPECT_EQ(core::spbc_complete(rank, 1), SPBC_ERR_NO_SESSION);
    EXPECT_EQ(core::spbc_need_checkpoint(rank, nullptr), SPBC_ERR_BAD_ARG);

    // The static every-N schedule paces the need query: checkpoint_every=2
    // means the second opportunity is the boundary.
    int need = -1;
    EXPECT_EQ(core::spbc_need_checkpoint(rank, &need), SPBC_SUCCESS);
    EXPECT_EQ(need, 0);
    EXPECT_EQ(core::spbc_need_checkpoint(rank, &need), SPBC_SUCCESS);
    EXPECT_EQ(need, 1);

    // A committed session: routed regions land in the rank's LOCAL store
    // for the NEXT epoch, resolved against the current physical binding.
    EXPECT_EQ(core::spbc_start(rank), SPBC_SUCCESS);
    EXPECT_EQ(core::spbc_start(rank), SPBC_ERR_IN_SESSION);
    EXPECT_EQ(core::spbc_route(rank, nullptr, &me, sizeof me, nullptr, 0),
              SPBC_ERR_BAD_ARG);
    EXPECT_EQ(core::spbc_route(rank, "iter", nullptr, sizeof me, nullptr, 0),
              SPBC_ERR_BAD_ARG);
    char where[128] = {0};
    EXPECT_EQ(core::spbc_route(rank, "iter", &me, sizeof me, where,
                               sizeof where),
              SPBC_SUCCESS);
    char expect[128];
    std::snprintf(expect, sizeof expect, "local://node%d/rank%d/epoch%llu/iter",
                  rank.machine().node_of(me), me,
                  static_cast<unsigned long long>(p->snapshot_epoch(me) + 1));
    EXPECT_STREQ(where, expect);
    double junk = 1.5;
    EXPECT_EQ(core::spbc_route(rank, "junk", &junk, sizeof junk, nullptr, 0),
              SPBC_SUCCESS);
    EXPECT_EQ(core::spbc_complete(rank, /*valid=*/1), SPBC_SUCCESS);

    // An invalid session discards its routed regions (the app detected a
    // torn dump); the committed image is untouched.
    EXPECT_EQ(core::spbc_start(rank), SPBC_SUCCESS);
    int torn = -1;
    EXPECT_EQ(core::spbc_route(rank, "torn", &torn, sizeof torn, nullptr, 0),
              SPBC_SUCCESS);
    EXPECT_EQ(core::spbc_complete(rank, /*valid=*/0), SPBC_SUCCESS);

    // Region reads: the sizing protocol and its error codes.
    uint64_t len = 0;
    EXPECT_EQ(core::spbc_restart_read(rank, "iter", nullptr, &len),
              SPBC_ERR_TRUNCATED);
    EXPECT_EQ(len, sizeof me);
    int back = -1;
    EXPECT_EQ(core::spbc_restart_read(rank, "iter", &back, &len), SPBC_SUCCESS);
    EXPECT_EQ(back, me);
    EXPECT_EQ(core::spbc_restart_read(rank, "nope", &back, &len),
              SPBC_ERR_UNKNOWN_REGION);
    EXPECT_EQ(core::spbc_restart_read(rank, "torn", &back, &len),
              SPBC_ERR_UNKNOWN_REGION);
  });
  mpi::RunResult res = m.run();
  ASSERT_TRUE(res.completed);

  for (int r = 0; r < 4; ++r) {
    const auto& fs = p->facade_state(r);
    EXPECT_FALSE(fs.in_session) << r;
    EXPECT_EQ(fs.sessions, 2u) << r;
    EXPECT_EQ(fs.completes, 1u) << r;  // the torn session never committed
    EXPECT_EQ(fs.regions.size(), 2u) << r;
  }
  // spbc_complete(valid=1) cut a real epoch through the coordinated wave.
  EXPECT_GT(p->store().snapshots_taken(), 0u);
}

// An adopted app must run unchanged with checkpointing off (SCR's recipe):
// on a machine without the SPBC protocol every call but spbc_restart_read
// is a successful no-op, while argument checks still fire first.
TEST(FacadeLifecycle, NativeMachineRunsAsNoCheckpointNoRestart) {
  mpi::MachineConfig mc;
  mc.nranks = 4;
  mc.ranks_per_node = 2;
  mpi::Machine m(mc, std::make_unique<mpi::NativeProtocol>());

  m.launch([](mpi::Rank& rank) {
    const int me = rank.rank();
    EXPECT_EQ(core::spbc_have_restart(rank, nullptr), SPBC_ERR_BAD_ARG);
    EXPECT_EQ(core::spbc_need_checkpoint(rank, nullptr), SPBC_ERR_BAD_ARG);
    EXPECT_EQ(core::spbc_route(rank, nullptr, &me, sizeof me, nullptr, 0),
              SPBC_ERR_BAD_ARG);
    EXPECT_EQ(core::spbc_route(rank, "iter", nullptr, sizeof me, nullptr, 0),
              SPBC_ERR_BAD_ARG);

    int have = -1;
    EXPECT_EQ(core::spbc_have_restart(rank, &have), SPBC_SUCCESS);
    EXPECT_EQ(have, 0);
    for (int i = 0; i < 4; ++i) {
      int need = -1;
      EXPECT_EQ(core::spbc_need_checkpoint(rank, &need), SPBC_SUCCESS);
      EXPECT_EQ(need, 0);
    }
    // A forced boundary goes through without a session to track.
    EXPECT_EQ(core::spbc_start(rank), SPBC_SUCCESS);
    char where[32] = "unchanged";
    EXPECT_EQ(core::spbc_route(rank, "iter", &me, sizeof me, where,
                               sizeof where),
              SPBC_SUCCESS);
    EXPECT_STREQ(where, "");
    EXPECT_EQ(core::spbc_complete(rank, /*valid=*/1), SPBC_SUCCESS);
    EXPECT_EQ(core::spbc_complete(rank, /*valid=*/0), SPBC_SUCCESS);

    // Reading restart state that was reported absent is misuse.
    int back = -1;
    uint64_t len = sizeof back;
    EXPECT_EQ(core::spbc_restart_read(rank, "iter", &back, &len),
              core::SPBC_ERR_NO_PROTOCOL);
    EXPECT_EQ(back, -1);
  });
  ASSERT_TRUE(m.run().completed);
}

TEST(FacadeLifecycle, ErrorStringsAreDistinct) {
  for (int code : {SPBC_SUCCESS, core::SPBC_ERR_NO_PROTOCOL,
                   SPBC_ERR_IN_SESSION, SPBC_ERR_NO_SESSION, SPBC_ERR_BAD_ARG,
                   SPBC_ERR_UNKNOWN_REGION, SPBC_ERR_TRUNCATED}) {
    ASSERT_NE(core::spbc_error_string(code), nullptr);
    EXPECT_GT(std::strlen(core::spbc_error_string(code)), 0u) << code;
  }
  EXPECT_STRNE(core::spbc_error_string(SPBC_ERR_NO_SESSION),
               core::spbc_error_string(SPBC_ERR_IN_SESSION));
}

// ---- checksum-identical recovery under hostile shapes ---------------------
//
// The acceptance bar: both facade ports run end-to-end through the facade
// and recover checksum-identical under at least three hostile shapes. Each
// shape is expressed through ScenarioConfig::hostile and composed with the
// partner-scheme default; the same config runs failure-free and with an
// injected mid-run failure, and the results must match bit-for-bit.

harness::ScenarioConfig facade_config(const std::string& app) {
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
  apply_elastic_env(cfg.machine);
  return cfg;
}

// Tool clustering traces the app natively before the SPBC run: both facade
// ports, forced phase boundary included, must complete there and compute
// the same answer as under SPBC.
TEST(FacadeLifecycle, FacadePortsRunNatively) {
  for (const std::string app : {"MiniFE-facade", "BT-facade"}) {
    harness::ScenarioConfig cfg = facade_config(app);
    harness::ScenarioResult spbc = harness::run_failure_free(cfg);
    ASSERT_TRUE(spbc.run.completed) << app;
    cfg.protocol = harness::ProtocolKind::kNative;
    harness::ScenarioResult native = harness::run_failure_free(cfg);
    ASSERT_TRUE(native.run.completed) << app;
    EXPECT_FALSE(native.checksums.empty()) << app;
    EXPECT_EQ(native.checksums, spbc.checksums) << app;
  }
}

struct HostileShape {
  const char* name;
  void (*apply)(harness::ScenarioConfig&, sim::Time probe_elapsed);
};

const HostileShape kShapes[] = {
    {"bursty-traffic",
     [](harness::ScenarioConfig& cfg, sim::Time) {
       cfg.app_cfg.burst_factor = 3.0;
       cfg.app_cfg.burst_period = 3;
       cfg.app_cfg.burst_duty = 1;
     }},
    {"straggler-skew",
     [](harness::ScenarioConfig& cfg, sim::Time) {
       cfg.machine.straggler_factor = 1.5;
       cfg.machine.straggler_frac = 0.4;
       cfg.machine.straggler_seed = 11;
     }},
    {"healing-partition",
     [](harness::ScenarioConfig& cfg, sim::Time probe_elapsed) {
       // Split the machine down the middle for the probe run's middle
       // third; the window is fixed virtual time, identical in the
       // failure-free and recovery runs.
       cfg.machine.net.partitions.push_back(
           {probe_elapsed * 0.3, probe_elapsed * 0.7,
            cfg.nranks / cfg.ranks_per_node / 2});
     }},
};

class FacadeHostileRecovery
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FacadeHostileRecovery, ChecksumIdenticalViaFacade) {
  const auto& [app, shape_idx] = GetParam();
  const HostileShape& shape = kShapes[shape_idx];

  harness::ScenarioConfig cfg = facade_config(app);
  harness::ScenarioResult probe = harness::run_failure_free(cfg);
  ASSERT_TRUE(probe.run.completed) << app << "/" << shape.name;
  shape.apply(cfg, probe.elapsed);

  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed) << app << "/" << shape.name;
  ASSERT_EQ(ff.checksums.size(), static_cast<size_t>(cfg.nranks));

  harness::ScenarioResult rec = harness::run_with_failure(cfg, ff.elapsed, 0.55);
  ASSERT_TRUE(rec.run.completed)
      << app << "/" << shape.name << ": deadlocked=" << rec.run.deadlocked;
  EXPECT_EQ(rec.checksums, ff.checksums) << app << "/" << shape.name;
  ASSERT_FALSE(rec.recoveries.empty()) << app << "/" << shape.name;
  EXPECT_TRUE(rec.recoveries.front().complete()) << app << "/" << shape.name;
}

INSTANTIATE_TEST_SUITE_P(
    AppsByShape, FacadeHostileRecovery,
    ::testing::Combine(::testing::Values(std::string("MiniFE-facade"),
                                         std::string("BT-facade")),
                       ::testing::Values(0, 1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         kShapes[std::get<1>(info.param)].name;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---- bit-identity across engine shard layouts -----------------------------
//
// Same discipline as test_engine_shard.cpp: a fixed-seed run with injected
// failures and recoveries must be bit-identical on every shard plan — now
// through the facade path, under hostile knobs (bursty traffic + straggler
// nodes; both deterministic pure functions of iteration index / node id, so
// they cannot depend on the execution layout).

struct FacadeOut {
  bool completed = false;
  sim::Time finish = 0;
  std::map<mpi::ChannelKey, std::vector<uint64_t>> trace;
  size_t recoveries = 0;
  uint64_t snapshots = 0;
};

FacadeOut facade_run(const std::string& app, int engine_shards,
                     int engine_threads,
                     const std::vector<std::pair<sim::Time, int>>& failures) {
  const int nranks = 32, ppn = 2, nclusters = 8;
  mpi::MachineConfig mc;
  mc.nranks = nranks;
  mc.ranks_per_node = ppn;
  mc.seed = 7;
  mc.record_send_trace = true;
  mc.compute_noise_frac = 0.05;
  mc.net.jitter_frac = 0.2;
  mc.engine_shards = engine_shards;
  mc.engine_threads = engine_threads;
  // Hostile knobs: straggle a third of the nodes and burst every third
  // iteration's messages.
  mc.straggler_factor = 1.5;
  mc.straggler_frac = 0.3;
  mc.straggler_seed = 5;

  core::SpbcConfig sc;
  sc.checkpoint_every = 2;
  sc.redundancy.kind = ckpt::SchemeKind::kSingle;  // node-local reservations
  auto proto = std::make_unique<core::SpbcProtocol>(sc);
  core::SpbcProtocol* p = proto.get();
  mpi::Machine m(mc, std::move(proto));

  const int nodes = nranks / ppn;
  std::vector<int> cmap(nranks);
  for (int r = 0; r < nranks; ++r) cmap[r] = (r / ppn) * nclusters / nodes;
  m.set_cluster_of(cmap);

  const apps::AppInfo& info = apps::find_app(app);
  apps::AppConfig ac;
  ac.iters = 6;
  ac.msg_scale = 0.05;
  ac.compute_scale = 0.05;
  ac.validate = false;
  ac.burst_factor = 2.0;
  ac.burst_period = 3;
  ac.burst_duty = 1;
  m.launch([&info, ac](mpi::Rank& r) { info.main(r, ac); });
  for (const auto& [t, victim] : failures) m.inject_failure(t, victim);

  mpi::RunResult res = m.run();
  FacadeOut out;
  out.completed = res.completed;
  out.finish = res.finish_time;
  out.trace = m.send_trace();
  out.recoveries = m.recoveries().size();
  out.snapshots = p->store().snapshots_taken();
  return out;
}

class FacadeShardDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(FacadeShardDeterminism, HostileRunBitIdenticalAcrossShardPlans) {
  const std::string app = GetParam();
  FacadeOut ff = facade_run(app, 1, 1, {});
  ASSERT_TRUE(ff.completed);
  const std::vector<std::pair<sim::Time, int>> failures = {
      {ff.finish * 0.35, 3}, {ff.finish * 0.6, 21}};

  FacadeOut ref = facade_run(app, 1, 1, failures);
  ASSERT_TRUE(ref.completed);
  EXPECT_EQ(ref.recoveries, 2u);

  struct Plan {
    int shards, threads;
    const char* name;
  };
  const std::vector<Plan> plans = {{2, 1, "shards=2"},
                                   {8, 1, "shards=8"},
                                   {0, 1, "shards=per-cluster"},
                                   {8, 4, "shards=8,threads=4"}};
  for (const Plan& pl : plans) {
    FacadeOut got = facade_run(app, pl.shards, pl.threads, failures);
    ASSERT_TRUE(got.completed) << app << "/" << pl.name;
    EXPECT_EQ(got.finish, ref.finish) << app << "/" << pl.name;
    EXPECT_EQ(got.recoveries, ref.recoveries) << app << "/" << pl.name;
    EXPECT_EQ(got.snapshots, ref.snapshots) << app << "/" << pl.name;
    trace::DeterminismReport rep =
        trace::compare_send_traces(ref.trace, got.trace);
    EXPECT_TRUE(rep.equal) << app << "/" << pl.name << ": " << rep.detail;
    EXPECT_GT(rep.events_compared, 0u) << app << "/" << pl.name;
  }
}

INSTANTIATE_TEST_SUITE_P(BothPorts, FacadeShardDeterminism,
                         ::testing::Values("MiniFE-facade", "BT-facade"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param == "MiniFE-facade" ? "MiniFE" : "BT";
                         });

// ---- per-shape accounting --------------------------------------------------
//
// ScenarioResult's hostile counters must move exactly when their shape is
// on: straggler stall time, partition holds/stall, and PFS interference
// (contended flushes, extra flush seconds, queue-depth high-water mark).

TEST(HostileStats, StragglerStallAccounting) {
  harness::ScenarioConfig cfg = facade_config("MiniFE-facade");
  harness::ScenarioResult base = harness::run_failure_free(cfg);
  ASSERT_TRUE(base.run.completed);
  EXPECT_EQ(base.straggler_stall_time, 0.0);

  cfg.machine.straggler_factor = 2.0;
  cfg.machine.straggler_frac = 0.4;
  cfg.machine.straggler_seed = 11;
  harness::ScenarioResult slow = harness::run_failure_free(cfg);
  ASSERT_TRUE(slow.run.completed);
  EXPECT_GT(slow.straggler_stall_time, 0.0);
  // Stalls are real time: the straggled run finishes later.
  EXPECT_GT(slow.elapsed, base.elapsed);
  // Checksums are content, not timing: identical to the un-straggled run.
  EXPECT_EQ(slow.checksums, base.checksums);
}

TEST(HostileStats, PartitionHoldAccounting) {
  harness::ScenarioConfig cfg = facade_config("BT-facade");
  harness::ScenarioResult base = harness::run_failure_free(cfg);
  ASSERT_TRUE(base.run.completed);
  EXPECT_EQ(base.partition_msgs_held, 0u);
  EXPECT_EQ(base.partition_stall_time, 0.0);

  cfg.machine.net.partitions.push_back(
      {base.elapsed * 0.2, base.elapsed * 0.6,
       cfg.nranks / cfg.ranks_per_node / 2});
  harness::ScenarioResult part = harness::run_failure_free(cfg);
  ASSERT_TRUE(part.run.completed);
  EXPECT_GT(part.partition_msgs_held, 0u);
  EXPECT_GT(part.partition_stall_time, 0.0);
  EXPECT_GT(part.elapsed, base.elapsed);
  EXPECT_EQ(part.checksums, base.checksums);
}

TEST(HostileStats, PfsInterferenceAccounting) {
  harness::ScenarioConfig cfg = facade_config("MiniFE-facade");
  // Real staging with a PFS tail so flushes exist to contend with.
  cfg.spbc.storage = ckpt::StorageLevel::kPfs;
  cfg.spbc.async_staging = true;
  cfg.spbc.snapshot_pad_bytes = 1 << 20;
  harness::ScenarioResult base = harness::run_failure_free(cfg);
  ASSERT_TRUE(base.run.completed);
  ASSERT_GT(base.staging.pfs_flushes, 0u);
  EXPECT_EQ(base.staging.pfs_contended_flushes, 0u);
  EXPECT_EQ(base.staging.pfs_interference_time, 0.0);
  EXPECT_GE(base.staging.pfs_queue_depth_hwm, 1u);

  // Another job owns 3/4 of the PFS ingest for the whole run.
  cfg.spbc.pfs_interference.push_back({0.0, 1e9, 0.25});
  harness::ScenarioResult busy = harness::run_failure_free(cfg);
  ASSERT_TRUE(busy.run.completed);
  EXPECT_GT(busy.staging.pfs_contended_flushes, 0u);
  EXPECT_GT(busy.staging.pfs_interference_time, 0.0);
  EXPECT_GE(busy.staging.pfs_queue_depth_hwm, base.staging.pfs_queue_depth_hwm);
  EXPECT_EQ(busy.checksums, base.checksums);
}

TEST(HostileStats, DomainFailureInjection) {
  // One rack's worth of correlated losses through the hostile matrix; the
  // scenario must count the expanded per-node failures and still recover
  // checksum-identical.
  harness::ScenarioConfig cfg = facade_config("MiniFE-facade");
  cfg.spbc.redundancy.kind = ckpt::SchemeKind::kReedSolomon;
  cfg.spbc.redundancy.rs_k = 4;
  cfg.spbc.redundancy.rs_m = 2;
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  EXPECT_EQ(ff.domain_failures_injected, 0u);

  cfg.hostile.rack_size = 2;  // 2-node rack = 4 ranks, inside RS(4,2) reach
  cfg.hostile.domain_failures.push_back(
      {ff.elapsed * 0.55, harness::FailureDomain::kRack, 1});
  harness::ScenarioResult rec = harness::run_scenario(cfg);
  ASSERT_TRUE(rec.run.completed) << "deadlocked=" << rec.run.deadlocked;
  EXPECT_EQ(rec.domain_failures_injected, 2u);
  EXPECT_FALSE(rec.recoveries.empty());
  EXPECT_EQ(rec.checksums, ff.checksums);
}

}  // namespace
}  // namespace spbc
