// Unit/integration tests: SPBC protocol hooks — logging policy, failure-free
// behaviour, LS suppression bookkeeping, log GC extension.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "baselines/presets.hpp"
#include "ckpt/reduction.hpp"
#include "core/spbc.hpp"
#include "mpi/machine.hpp"

namespace spbc {
namespace {

using mpi::Machine;
using mpi::MachineConfig;
using mpi::Payload;
using mpi::Rank;

struct Rig {
  std::unique_ptr<Machine> machine;
  core::SpbcProtocol* protocol = nullptr;
};

Rig make_rig(int nranks, std::vector<int> clusters, core::SpbcConfig scfg = {}) {
  MachineConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  Rig s;
  s.protocol = proto.get();
  s.machine = std::make_unique<Machine>(cfg, std::move(proto));
  s.machine->set_cluster_of(std::move(clusters));
  return s;
}

TEST(SpbcLogging, OnlyInterClusterMessagesAreLogged) {
  Rig s = make_rig(4, {0, 0, 1, 1});
  s.machine->launch([](Rank& r) {
    const mpi::Comm& w = r.world();
    if (r.rank() == 0) {
      r.send(1, 1, Payload::make_synthetic(100, 0), w);  // intra-cluster
      r.send(2, 1, Payload::make_synthetic(200, 0), w);  // inter-cluster
    } else if (r.rank() == 1) {
      r.recv(0, 1, w);
    } else if (r.rank() == 2) {
      r.recv(0, 1, w);
    }
  });
  EXPECT_TRUE(s.machine->run().completed);
  EXPECT_EQ(s.protocol->log_of(0).size(), 1u);
  EXPECT_EQ(s.protocol->log_of(0).bytes_appended(), 200u);
  EXPECT_EQ(s.machine->rank(0).profile().bytes_logged, 200u);
  EXPECT_EQ(s.machine->rank(0).profile().bytes_sent_intra_cluster, 100u);
  EXPECT_EQ(s.machine->rank(0).profile().bytes_sent_inter_cluster, 200u);
}

TEST(SpbcLogging, LoggingChargesSenderTime) {
  Rig inter = make_rig(2, {0, 1});
  sim::Time t_inter = 0;
  inter.machine->launch([&](Rank& r) {
    if (r.rank() == 0) {
      r.send(1, 1, Payload::make_synthetic(10000, 0), r.world());
      t_inter = r.now();
    } else {
      r.recv(0, 1, r.world());
    }
  });
  EXPECT_TRUE(inter.machine->run().completed);

  Rig intra = make_rig(2, {0, 0});
  sim::Time t_intra = 0;
  intra.machine->launch([&](Rank& r) {
    if (r.rank() == 0) {
      r.send(1, 1, Payload::make_synthetic(10000, 0), r.world());
      t_intra = r.now();
    } else {
      r.recv(0, 1, r.world());
    }
  });
  EXPECT_TRUE(intra.machine->run().completed);
  // The inter-cluster send pays exactly the logging cost on top of the same
  // send inside a cluster, which logs nothing.
  EXPECT_GT(core::SpbcProtocol::log_cost(10000), 0.0);
  EXPECT_DOUBLE_EQ(t_inter - t_intra, core::SpbcProtocol::log_cost(10000));
}

TEST(SpbcLogging, PureLoggingPresetLogsEverything) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  cfg.enforce_node_colocation = false;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  core::SpbcProtocol* p = proto.get();
  Machine m(cfg, std::move(proto));
  m.set_cluster_of(baselines::per_rank_cluster_map(4));
  m.launch([](Rank& r) {
    if (r.rank() == 0) {
      for (int d = 1; d < 4; ++d)
        r.send(d, 1, Payload::make_synthetic(50, 0), r.world());
    } else {
      r.recv(0, 1, r.world());
    }
  });
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(p->log_of(0).bytes_appended(), 150u);
}

TEST(SpbcLogging, SingleClusterLogsNothing) {
  Rig s = make_rig(4, {0, 0, 0, 0});
  s.machine->launch([](Rank& r) {
    if (r.rank() == 0) {
      for (int d = 1; d < 4; ++d)
        r.send(d, 1, Payload::make_synthetic(50, 0), r.world());
    } else {
      r.recv(0, 1, r.world());
    }
  });
  EXPECT_TRUE(s.machine->run().completed);
  EXPECT_EQ(s.protocol->log_of(0).bytes_appended(), 0u);
}

TEST(SpbcLogging, GcReclaimsAfterDestinationCheckpoint) {
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.gc_logs = true;
  Rig s = make_rig(4, {0, 0, 1, 1}, scfg);
  s.machine->launch([](Rank& r) {
    r.set_state_handlers([](util::ByteWriter& w) { w.put<int>(0); },
                         [](util::ByteReader& rd) { rd.get<int>(); });
    const mpi::Comm& w = r.world();
    for (int it = 0; it < 3; ++it) {
      if (r.rank() == 0) {
        r.send(2, 1, Payload::make_synthetic(100, 0), w);
      } else if (r.rank() == 2) {
        r.recv(0, 1, w);
      }
      r.maybe_checkpoint();
    }
  });
  EXPECT_TRUE(s.machine->run().completed);
  // All three messages were logged; GC after cluster 1's checkpoints
  // reclaimed the received ones.
  EXPECT_EQ(s.protocol->log_of(0).bytes_appended(), 300u);
  EXPECT_LT(s.protocol->log_of(0).bytes_retained(), 300u);
}

TEST(SpbcProtocol, PatternMatchingFlag) {
  core::SpbcConfig on;
  on.pattern_ids = true;
  core::SpbcConfig off;
  off.pattern_ids = false;
  core::SpbcProtocol a(on), b(off);
  EXPECT_TRUE(a.pattern_matching_enabled());
  EXPECT_FALSE(b.pattern_matching_enabled());
}

TEST(SpbcProtocol, CheckpointNowForcesWave) {
  core::SpbcConfig scfg;  // checkpoint_every = 0: no periodic checkpoints
  Rig s = make_rig(2, {0, 1}, scfg);
  core::SpbcProtocol* p = s.protocol;
  s.machine->launch([p](Rank& r) {
    r.set_state_handlers([](util::ByteWriter& w) { w.put<int>(1); },
                         [](util::ByteReader& rd) { rd.get<int>(); });
    EXPECT_FALSE(r.maybe_checkpoint());
    p->checkpoint_now(r);
  });
  EXPECT_TRUE(s.machine->run().completed);
  EXPECT_EQ(p->checkpoints_taken(), 2u);
}

TEST(SpbcProtocol, SuppressionWindowBlocksTransmit) {
  // Direct unit check of should_transmit against an installed window.
  Rig s = make_rig(2, {0, 1});
  core::SpbcProtocol* p = s.protocol;
  s.machine->launch([p, &s](Rank& r) {
    if (r.rank() != 0) return;
    auto& ch = r.send_state(1, 0);
    ch.peer_received.add(1);
    ch.peer_received.add(2);
    mpi::Envelope e;
    e.src = 0;
    e.dst = 1;
    e.ctx = 0;
    e.seqnum = 2;
    EXPECT_FALSE(p->should_transmit(r, e));
    e.seqnum = 3;
    EXPECT_TRUE(p->should_transmit(r, e));
    (void)s;
  });
  EXPECT_TRUE(s.machine->run().completed);
}

// Each staging setting is held once and derived at attach: the staging area
// takes the async mode from SpbcConfig and the scrub period and escalation
// target from the control-plane config, and the control plane prices its
// level strides from the cost model alone.
TEST(SpbcProtocol, StagingSettingsReachStagingAndControlPlane) {
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.control.prior_storage_mtbf = 200.0;  // a stride above 1
  scfg.control.scrub_period = 0.004;
  scfg.control.escalation =
      ckpt::RedundancyConfig{ckpt::SchemeKind::kReedSolomon};
  Rig s = make_rig(8, {0, 0, 0, 0, 1, 1, 1, 1}, scfg);
  core::SpbcProtocol* p = s.protocol;
  const ckpt::StagingArea& st = p->staging();
  EXPECT_TRUE(st.async());
  EXPECT_EQ(st.scrub_period(), 0.004);

  // attach() built the escalated scheme, so the switch takes effect.
  EXPECT_FALSE(st.scheme_escalated());
  p->staging_mut().set_scheme_escalated(true);
  EXPECT_TRUE(st.scheme_escalated());
  EXPECT_EQ(st.active_scheme().kind(), ckpt::SchemeKind::kReedSolomon);
  p->staging_mut().set_scheme_escalated(false);

  // The redundancy hop costs the bandwidth it occupies (bytes/bw of the
  // 1 MiB snapshot hint). The stride is a function of the cost model and
  // the domains alone: an unattached control plane prices the same one.
  const core::ControlPlane& cp = p->control_plane();
  const double c = static_cast<double>(1 << 20) / scfg.storage_model.partner_bw;
  const double t =
      std::sqrt(2.0 * c * scfg.control.prior_storage_mtbf * /*domains=*/2);
  const uint64_t stride =
      static_cast<uint64_t>(std::round(t / cp.local_interval()));
  EXPECT_EQ(cp.redundancy_stride(), stride);
  core::ControlPlane unattached(scfg.control, scfg.storage_model);
  unattached.set_domains(2);
  EXPECT_EQ(unattached.redundancy_stride(), stride);
  EXPECT_EQ(unattached.pfs_stride(), cp.pfs_stride());

  // The audit wave runs every scrub period from the first staged write.
  const apps::AppInfo& info = apps::find_app("MiniGhost");
  apps::AppConfig ac;
  ac.iters = 6;
  ac.validate = false;
  s.machine->launch([&info, ac](Rank& r) { info.main(r, ac); });
  const mpi::RunResult res = s.machine->run();
  ASSERT_TRUE(res.completed);
  const uint64_t waves = st.stats().scrub_waves;
  EXPECT_GT(waves, 0u);
  EXPECT_LE(waves, static_cast<uint64_t>(res.finish_time / 0.004));
}

// Records what each rollback restored, and checks at every respawn that the
// rank's state image carries the block versions its restored capture
// recorded: a capture's image_versions, or all 0 after a rollback to sigma_0.
class RestoreProbe : public core::SpbcProtocol {
 public:
  using SpbcProtocol::SpbcProtocol;

  void on_rank_start(Rank& rank, bool restarted) override {
    SpbcProtocol::on_rank_start(rank, restarted);
    const int r = rank.rank();
    // A rollback to sigma_0 respawns the rank as a fresh start.
    if (starts[r]++ == 0) return;
    const uint64_t epoch = snapshot_epoch(r);
    const std::vector<uint64_t>& v = synthetic_state(r).versions();
    if (!restarted) {
      ++to_epoch0;
      if (std::any_of(v.begin(), v.end(), [](uint64_t x) { return x != 0; }))
        ++wrong_versions;
      return;
    }
    if (!store().at_epoch(r, epoch).full()) ++to_delta;
    if (v != store().at_epoch(r, epoch).image_versions) ++wrong_versions;
  }

  std::map<int, int> starts;
  int to_epoch0 = 0;
  int to_delta = 0;
  int wrong_versions = 0;
};

struct ProbeRun {
  std::unique_ptr<Machine> machine;
  RestoreProbe* probe = nullptr;
  std::map<int, uint64_t> checksums;
  sim::Time finish = 0;
};

ProbeRun run_probe(const core::SpbcConfig& scfg,
                   const std::vector<std::pair<sim::Time, int>>& failures) {
  MachineConfig mc;
  mc.nranks = 16;
  mc.ranks_per_node = 4;
  auto proto = std::make_unique<RestoreProbe>(scfg);
  ProbeRun out;
  out.probe = proto.get();
  out.machine = std::make_unique<Machine>(mc, std::move(proto));
  out.machine->set_cluster_of({0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3});
  const apps::AppInfo& info = apps::find_app("MiniGhost");
  apps::AppConfig ac;
  ac.iters = 12;
  ac.validate = true;
  ac.checksums = &out.checksums;
  out.machine->launch([&info, ac](Rank& r) { info.main(r, ac); });
  for (const auto& [t, victim] : failures) out.machine->inject_failure(t, victim);
  const mpi::RunResult res = out.machine->run();
  EXPECT_TRUE(res.completed);
  out.finish = res.finish_time;
  return out;
}

// The state image comes back from every restore to a delta epoch with the
// block versions its capture recorded, and from every restore to sigma_0
// with all versions 0, so the next cut diffs it against its predecessor by
// version; and restored runs still end on the failure-free checksums. State
// blocks of 384 bytes straddle the 256-byte delta blocks, so one rewrite
// dirties several capture blocks.
TEST(SpbcProtocol, StateImageVersionsSurviveRestores) {
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 2;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.reduction.delta = true;
  scfg.reduction.block_bytes = 256;
  scfg.reduction.full_stride = 4;
  scfg.reduction.compress = true;
  scfg.state_model.bytes = 4096;
  scfg.state_model.block_bytes = 384;
  scfg.state_model.mutation_rate = 0.2;
  scfg.state_model.seed = 7;

  const ProbeRun ff = run_probe(scfg, {});
  ASSERT_FALSE(ff.checksums.empty());
  // An early failure in cluster 0 (before its first commit: sigma_0) and a
  // late one in cluster 2 (mid-chain: a delta epoch).
  const ProbeRun fr = run_probe(scfg, {{ff.finish * 0.1, 1}, {ff.finish * 0.6, 9}});
  const RestoreProbe& p = *fr.probe;
  EXPECT_GT(p.to_epoch0, 0);
  EXPECT_GT(p.to_delta, 0);
  EXPECT_EQ(p.wrong_versions, 0);
  EXPECT_EQ(fr.checksums, ff.checksums);
}

// A rank fiber that checkpoints with delta encoding and compression on keeps
// its stack shallow: the encoder's match table and every other large scratch
// buffer live per thread or on the heap, never in a fiber's frame.
TEST(SpbcProtocol, CompressingFibersTouchAtMostTwoStackPages) {
#if SPBC_ASAN || SPBC_TSAN
  GTEST_SKIP() << "sanitizer instrumentation inflates stack frames";
#endif
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 2;
  scfg.reduction.delta = true;
  scfg.reduction.block_bytes = 1024;
  scfg.reduction.compress = true;
  scfg.state_model.bytes = 64 * 1024;
  scfg.state_model.block_bytes = 1024;
  const ProbeRun run = run_probe(scfg, {});
  const sim::Engine& engine = run.machine->engine();
  const size_t stacks = engine.stats().stacks_allocated;
  ASSERT_GE(stacks, 16u);
  ASSERT_GT(run.probe->store().delta_snapshots(), 0u);
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  EXPECT_LE(engine.stack_resident_bytes(), 2 * page * stacks)
      << engine.stack_resident_bytes() / page << " resident pages over " << stacks
      << " stacks";
}

}  // namespace
}  // namespace spbc
