// Tests: asynchronous multi-level checkpoint staging (LOCAL -> PARTNER ->
// PFS), residency-aware recovery (cheapest live level, cross-level and
// cross-epoch fallback), the restore pass's timing and per-read counting,
// migration's epoch rename, the binomial-tree commit reduction, the
// in-flight capture memory bound, and log reclamation accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/staging.hpp"
#include "core/spbc.hpp"
#include "mpi/machine.hpp"

namespace spbc {
namespace {

using mpi::Machine;
using mpi::MachineConfig;
using mpi::Payload;
using mpi::Rank;

// Slows the PFS so drains stay observable mid-run: a ~KB snapshot takes tens
// of milliseconds to flush while LOCAL writes and partner copies stay fast.
ckpt::StorageCostModel slow_pfs_model() {
  ckpt::StorageCostModel m;
  m.pfs_bw = 1.0e5;
  return m;
}

TEST(Staging, PartnerMappingPrefersOtherCluster) {
  MachineConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 2;
  core::SpbcConfig scfg;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  core::SpbcProtocol* p = proto.get();
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 0, 0, 0, 1, 1, 1, 1});  // nodes 0,1 vs nodes 2,3
  for (int r = 0; r < 8; ++r) {
    int partner = p->staging().partner_of(r);
    ASSERT_GE(partner, 0);
    EXPECT_NE(m.cluster_of(partner), m.cluster_of(r))
        << "rank " << r << " partnered inside its own failure domain";
    EXPECT_NE(m.topology().node_of(partner), m.topology().node_of(r));
  }
  // Single cluster: a cross-cluster buddy does not exist; a distinct node
  // must still be chosen.
  auto proto2 = std::make_unique<core::SpbcProtocol>(scfg);
  core::SpbcProtocol* p2 = proto2.get();
  Machine m2(cfg, std::move(proto2));
  m2.set_cluster_of(std::vector<int>(8, 0));
  EXPECT_NE(m2.topology().node_of(p2->staging().partner_of(0)),
            m2.topology().node_of(0));
}

// Async staging charges the member only the LOCAL write; by the end of the
// run the background drainer has promoted every snapshot to PFS.
TEST(Staging, AsyncWriteStallsShortAndDrainsToPfs) {
  MachineConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 1;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.storage_model = slow_pfs_model();
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  core::SpbcProtocol* p = proto.get();
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 1});
  sim::Time stall = 0;
  m.launch([&](Rank& r) {
    r.set_state_handlers([](util::ByteWriter& w) { w.put<int>(1); },
                         [](util::ByteReader& rd) { rd.get<int>(); });
    sim::Time before = r.now();
    r.maybe_checkpoint();
    if (r.rank() == 0) stall = r.now() - before;
  });
  EXPECT_TRUE(m.run().completed);
  // The fiber paid roughly the LOCAL write (base latency + ~KB/GBps), far
  // below the tens-of-milliseconds sync PFS write of the same snapshot.
  EXPECT_GT(stall, 0.0);
  EXPECT_LT(stall, 1e-2);
  const ckpt::StagingStats& st = p->staging().stats();
  EXPECT_EQ(st.drains_started, 2u);
  EXPECT_EQ(st.pfs_flushes, 2u);
  EXPECT_GE(p->staging().pfs_frontier(0), 1u);
  EXPECT_EQ(p->staging().levels(0, 1) & ckpt::kAtPfs, ckpt::kAtPfs);
}

// Commit does not wait for the drain: an epoch committed while its PFS flush
// is still in flight records LOCAL residency, and the introspection shows
// which redundancy actually backed the commit.
TEST(Staging, CommitRecordsResidencyAtCommitTime) {
  MachineConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 1;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.storage_model = slow_pfs_model();
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  core::SpbcProtocol* p = proto.get();
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 0});
  m.launch([&](Rank& r) {
    r.set_state_handlers([](util::ByteWriter& w) { w.put<int>(1); },
                         [](util::ByteReader& rd) { rd.get<int>(); });
    r.maybe_checkpoint();
    r.compute(1e-4);  // commit happens here, long before the PFS flush
  });
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(p->committed_epoch(0), 1u);
  EXPECT_NE(p->commit_levels(0) & ckpt::kAtLocal, 0);
  EXPECT_EQ(p->commit_levels(0) & ckpt::kAtPfs, 0)
      << "commit should have preceded the slow PFS flush";
}

// A failure that destroys the LOCAL copies restores the cluster from the
// PARTNER copies hosted on the surviving failure domain.
TEST(Staging, PartnerCopyServesRecovery) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.storage_model = slow_pfs_model();
  const int iters = 3;
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  core::SpbcProtocol* p = proto.get();
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 0, 1, 1});
  m.launch([](Rank& r) {
    struct St {
      int iter = 0;
    } st;
    r.set_state_handlers(
        [&st](util::ByteWriter& w) { w.put(st); },
        [&st](util::ByteReader& rd) { st = rd.get<decltype(st)>(); });
    if (r.restarted()) r.restore_app_state();
    const mpi::Comm& w = r.world();
    for (; st.iter < iters;) {
      int peer = r.rank() ^ 1;  // intra-cluster pairing
      mpi::Request rq = r.irecv(peer, 1, w);
      r.isend(peer, 1, Payload::make_synthetic(128, 7), w);
      r.wait(rq);
      r.compute(5e-3);
      ++st.iter;
      r.maybe_checkpoint();
    }
  });
  // Epoch 1 commits around t=5ms (LOCAL + PARTNER; the slow PFS flush is
  // still pending); the crash at 8ms destroys node 0's LOCAL copies.
  m.inject_failure(8e-3, 0);
  mpi::RunResult res = m.run();
  ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  ASSERT_EQ(m.recoveries().size(), 1u);
  EXPECT_TRUE(m.recoveries().at(0).complete());
  EXPECT_GT(m.recoveries().at(0).checkpoint_time, 0.0);
  const ckpt::StagingStats& st = p->staging().stats();
  EXPECT_EQ(st.epoch_fallbacks, 0u);
  // Both members of the failed cluster restored from their buddy node.
  EXPECT_GE(st.restores_by_level[1], 2u);  // index 1 = PARTNER
  EXPECT_EQ(st.restores_by_level[0], 0u);  // LOCAL was destroyed
}

// Drain-in-progress failure: the committed epoch existed only at LOCAL (and
// at a PARTNER inside the same dying failure domain), so recovery falls back
// to the older epoch the drainer had already flushed to PFS — and the
// re-execution still produces the failure-free result.
TEST(Staging, DrainInProgressFailureFallsBackAnEpoch) {
  MachineConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 1;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.storage_model = slow_pfs_model();
  const int iters = 3;
  auto run = [&](bool inject, std::map<int, uint64_t>* sums,
                 core::SpbcProtocol** proto_out) {
    auto proto = std::make_unique<core::SpbcProtocol>(scfg);
    if (proto_out) *proto_out = proto.get();
    auto m = std::make_unique<Machine>(cfg, std::move(proto));
    m->set_cluster_of({0, 0});  // one cluster spanning both nodes
    m->launch([sums](Rank& r) {
      struct St {
        int iter = 0;
        uint64_t sum = 0;
      } st;
      r.set_state_handlers(
          [&st](util::ByteWriter& w) { w.put(st); },
          [&st](util::ByteReader& rd) { st = rd.get<decltype(st)>(); });
      if (r.restarted()) r.restore_app_state();
      const mpi::Comm& w = r.world();
      for (; st.iter < iters;) {
        int peer = 1 - r.rank();
        mpi::Request rq = r.irecv(peer, 1, w);
        r.isend(peer, 1,
                Payload::make_synthetic(
                    128, static_cast<uint64_t>(r.rank() * 100 + st.iter)),
                w);
        r.wait(rq);
        util::Fnv1a64 h;
        h.update_u64(st.sum);
        h.update_u64(rq.result().hash);
        st.sum = h.digest();
        // Iteration 0 ends at ~10ms (epoch 1; its flush lands ~15-20ms);
        // iteration 1 stretches to ~70ms (epoch 2, flush pending at the
        // 72ms crash).
        r.compute(st.iter == 1 ? 60e-3 : 10e-3);
        ++st.iter;
        r.maybe_checkpoint();
      }
      if (sums) (*sums)[r.rank()] = st.sum;
    });
    if (inject) m->inject_failure(72e-3, 0);
    return m;
  };
  std::map<int, uint64_t> expect;
  {
    auto m = run(false, &expect, nullptr);
    ASSERT_TRUE(m->run().completed);
  }
  std::map<int, uint64_t> sums;
  core::SpbcProtocol* p = nullptr;
  auto m = run(true, &sums, &p);
  mpi::RunResult res = m->run();
  ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect);
  const ckpt::StagingStats& st = p->staging().stats();
  EXPECT_EQ(st.epoch_fallbacks, 1u);
  EXPECT_GE(st.restores_by_level[2], 2u);  // index 2 = PFS
  ASSERT_EQ(m->recoveries().size(), 1u);
  // The restored checkpoint is epoch 1 (cut at ~10ms), not the committed-
  // but-destroyed epoch 2 (cut at ~70ms).
  EXPECT_GT(m->recoveries().at(0).checkpoint_time, 5e-3);
  EXPECT_LT(m->recoveries().at(0).checkpoint_time, 40e-3);
  // Re-execution recommitted the redone epochs.
  EXPECT_EQ(p->committed_epoch(0), static_cast<uint64_t>(iters));
}

// The capture bound turns memory pressure into an early checkpoint wave:
// a rank whose live capture bytes exceed the bound cuts a fresh epoch at its
// next opportunity, and the resulting commit reclaims the captures.
TEST(Staging, CaptureBoundForcesEarlyWave) {
  MachineConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 2;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 0;  // no periodic schedule: pressure must trigger
  scfg.capture_bytes_bound = 512;
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  core::SpbcProtocol* p = proto.get();
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 0});
  const int batches = 3, per_batch = 4;
  m.launch([&](Rank& r) {
    r.set_state_handlers([](util::ByteWriter& w) { w.put<int>(0); },
                         [](util::ByteReader& rd) { rd.get<int>(); });
    const mpi::Comm& w = r.world();
    if (r.rank() == 1) p->checkpoint_now(r);
    for (int b = 0; b < batches; ++b) {
      for (int i = 0; i < per_batch; ++i) {
        if (r.rank() == 0)
          r.send(1, 1, Payload::make_synthetic(256, 0xc0de), w);
        else
          r.recv(0, 1, w);
      }
      r.maybe_checkpoint();
      r.compute(1e-3);
    }
  });
  EXPECT_TRUE(m.run().completed);
  // Rank 0's first batch was stamped pre-cut and captured at rank 1 (1KB >
  // the 512B bound), forcing at least one wave beyond the checkpoint_now.
  EXPECT_GE(p->capture_forced_waves(), 1u);
  EXPECT_GT(p->store().capture_hwm_bytes(), scfg.capture_bytes_bound);
  EXPECT_GE(p->committed_epoch(0), 2u);
  // The forced commit reclaimed the pressure: live captures ended below the
  // high-water mark.
  EXPECT_LT(p->store().capture_live_bytes(1), p->store().capture_hwm_bytes());
}

// The binomial-tree completion reduction commits waves for cluster sizes on
// and off powers of two.
TEST(Staging, TreeReductionCommitsAcrossClusterSizes) {
  for (int nranks : {6, 8}) {
    MachineConfig cfg;
    cfg.nranks = nranks;
    cfg.ranks_per_node = nranks / 2;
    core::SpbcConfig scfg;
    scfg.checkpoint_every = 1;
    auto proto = std::make_unique<core::SpbcProtocol>(scfg);
    core::SpbcProtocol* p = proto.get();
    Machine m(cfg, std::move(proto));
    m.set_cluster_of(std::vector<int>(static_cast<size_t>(nranks), 0));
    const int iters = 3;
    m.launch([&](Rank& r) {
      r.set_state_handlers([](util::ByteWriter& w) { w.put<int>(0); },
                           [](util::ByteReader& rd) { rd.get<int>(); });
      const mpi::Comm& w = r.world();
      for (int it = 0; it < iters; ++it) {
        int to = (r.rank() + 1) % r.nranks();
        int from = (r.rank() + r.nranks() - 1) % r.nranks();
        mpi::Request rq = r.irecv(from, 1, w);
        r.isend(to, 1, Payload::make_synthetic(64, static_cast<uint64_t>(it)), w);
        r.wait(rq);
        r.maybe_checkpoint();
      }
    });
    EXPECT_TRUE(m.run().completed) << "nranks=" << nranks;
    EXPECT_EQ(p->committed_epoch(0), static_cast<uint64_t>(iters));
    EXPECT_EQ(p->checkpoints_taken(),
              static_cast<uint64_t>(nranks) * static_cast<uint64_t>(iters));
  }
}

// Kill-during-drain: the partner node dies while it hosts the only PARTNER
// copy and the PFS flush sourced from it is still in flight. The promotion
// hop must not abort the chain — it retries from the cheapest surviving
// level (the home node's LOCAL copy) and still lands the snapshot on PFS.
// Drives the StagingArea directly so the loss timing is exact.
TEST(Staging, HopRetriesFromLocalWhenPartnerDiesMidDrain) {
  MachineConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 1});  // rank 1's node hosts rank 0's PARTNER copies
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.model = slow_pfs_model();  // 100KB => ~1s of PFS flush time
  ckpt::StagingArea area(sc);
  area.attach(m);
  ASSERT_EQ(area.partner_of(0), 1);
  // Rank 0 snapshots epoch 1: LOCAL write, then the background chain copies
  // to the partner (fast) and starts the ~1s PFS flush from the partner's
  // node. At t=50ms that node's storage dies, taking the flush's source.
  m.engine().at(1e-3, [&] { area.write(0, 1, 100000); });
  m.engine().at(50e-3, [&] { area.invalidate_node(1); });
  mpi::RunResult res = m.run();
  EXPECT_TRUE(res.completed);
  const ckpt::StagingStats& st = area.stats();
  EXPECT_GE(st.hop_retries, 1u);       // the hop was re-issued, not abandoned
  EXPECT_EQ(st.drains_aborted, 0u);    // the chain never gave up
  EXPECT_EQ(st.pfs_flushes, 1u);
  // The retried chain reached PFS from the surviving LOCAL copy. The buddy
  // node is still out of service (no resident wrote again), so no new
  // PARTNER copy may land there — a copy on a down store would outlive the
  // node's next death, because invalidate_node dedups repeat failures.
  EXPECT_EQ(area.levels(0, 1) & ckpt::kAtPartner, 0);
  EXPECT_NE(area.levels(0, 1) & ckpt::kAtPfs, 0);
  EXPECT_NE(area.levels(0, 1) & ckpt::kAtLocal, 0);
  EXPECT_EQ(area.pfs_frontier(0), 1u);
}

// A LOCAL chain ends at the node-local write in both modes: under a PARTNER
// or RS scheme an async kLocal write places no fragment, starts no drain,
// and charges the fiber what a sync-LOCAL write charges.
TEST(Staging, AsyncLocalChainEndsAtTheLocalWrite) {
  const ckpt::RedundancyConfig schemes[] = {
      {ckpt::SchemeKind::kPartner}, {ckpt::SchemeKind::kReedSolomon, 2, 1}};
  for (const ckpt::RedundancyConfig& red : schemes) {
    std::vector<sim::Time> cost[2];
    std::vector<ckpt::StagingStats> stats;
    for (bool async : {false, true}) {
      MachineConfig cfg;
      cfg.nranks = 8;
      cfg.ranks_per_node = 2;  // co-resident writes queue on the device
      auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
      Machine m(cfg, std::move(proto));
      m.set_cluster_of({0, 0, 1, 1, 2, 2, 3, 3});
      ckpt::StagingConfig sc;
      sc.level = ckpt::StorageLevel::kLocal;
      sc.async = async;
      sc.redundancy = red;
      ckpt::StagingArea area(sc);
      area.attach(m);
      for (int r = 0; r < 8; ++r) {
        m.engine().at(1e-3, [&, r] {
          cost[async].push_back(area.write(r, 1, 100000));
        });
      }
      EXPECT_TRUE(m.run().completed);
      for (int r = 0; r < 8; ++r) {
        ASSERT_NE(area.fragments(r, 1), nullptr);
        EXPECT_TRUE(area.fragments(r, 1)->empty()) << "rank " << r;
        EXPECT_EQ(area.levels(r, 1), ckpt::kAtLocal) << "rank " << r;
      }
      stats.push_back(area.stats());
    }
    EXPECT_EQ(cost[1], cost[0]);
    const ckpt::StagingStats& st = stats[1];
    EXPECT_EQ(st.drains_started, 0u);
    EXPECT_EQ(st.partner_copies + st.parity_fragments, 0u);
    EXPECT_EQ(st.bytes_to_local, stats[0].bytes_to_local);
  }
}

// The run reports when the application ended apart from when the engine did:
// the slow PFS drain outlives the app, and the app's end is the latest
// return over every incarnation — the respawned ranks of the failed cluster
// finish last.
TEST(Staging, AppEndExcludesDrainAndCountsRespawnedRanks) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.storage_model = slow_pfs_model();
  Machine m(cfg, std::make_unique<core::SpbcProtocol>(scfg));
  m.set_cluster_of({0, 0, 1, 1});
  std::map<int, sim::Time> returned;
  m.launch([&returned](Rank& r) {
    struct St {
      int iter = 0;
    } st;
    r.set_state_handlers(
        [&st](util::ByteWriter& w) { w.put(st); },
        [&st](util::ByteReader& rd) { st = rd.get<decltype(st)>(); });
    if (r.restarted()) r.restore_app_state();
    const mpi::Comm& w = r.world();
    for (; st.iter < 3;) {
      int peer = r.rank() ^ 1;  // intra-cluster pairing
      mpi::Request rq = r.irecv(peer, 1, w);
      r.isend(peer, 1, Payload::make_synthetic(128, 7), w);
      r.wait(rq);
      r.compute(5e-3);
      ++st.iter;
      r.maybe_checkpoint();
    }
    returned[r.rank()] = r.now();
  });
  m.inject_failure(12e-3, 0);
  const mpi::RunResult res = m.run();
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(m.recoveries().size(), 1u);
  ASSERT_EQ(returned.size(), 4u);
  sim::Time latest = 0, survivors = 0;
  for (const auto& [rank, t] : returned) {
    latest = std::max(latest, t);
    if (rank >= 2) survivors = std::max(survivors, t);
  }
  EXPECT_GT(latest, survivors) << "the failed cluster should finish last";
  EXPECT_EQ(res.app_end_time, latest);
  EXPECT_GT(res.finish_time, res.app_end_time)
      << "the PFS drain outlives the app";
}

// gc_logs reclaims sender-log entries once the destination cluster commits,
// and the reclamation is now measurable.
TEST(Staging, GcLogsReclaimsMeasuredBytes) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.gc_logs = true;
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  core::SpbcProtocol* p = proto.get();
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 0, 1, 1});
  const int iters = 4;
  m.launch([&](Rank& r) {
    r.set_state_handlers([](util::ByteWriter& w) { w.put<int>(0); },
                         [](util::ByteReader& rd) { rd.get<int>(); });
    const mpi::Comm& w = r.world();
    for (int it = 0; it < iters; ++it) {
      int to = (r.rank() + 1) % 4;  // ring: crosses clusters at 1->2, 3->0
      int from = (r.rank() + 3) % 4;
      mpi::Request rq = r.irecv(from, 1, w);
      r.isend(to, 1, Payload::make_synthetic(512, static_cast<uint64_t>(it)), w);
      r.wait(rq);
      r.compute(1e-3);
      r.maybe_checkpoint();
    }
  });
  EXPECT_TRUE(m.run().completed);
  uint64_t reclaimed = 0, retained = 0;
  for (int r = 0; r < 4; ++r) {
    reclaimed += p->log_of(r).bytes_reclaimed();
    retained += p->log_of(r).bytes_retained();
  }
  EXPECT_GT(reclaimed, 0u);
  // Reclamation kept the live log strictly below everything ever appended.
  uint64_t appended = 0;
  for (int r = 0; r < 4; ++r) appended += p->log_of(r).bytes_appended();
  EXPECT_LT(retained, appended);
}

// One restore pass over a three-member cluster under RS(4, 2) on six
// single-rank nodes: rank 0 reads one full capture from LOCAL, rank 1 reads
// a two-element delta chain from LOCAL, and rank 2, whose node died, rebuilds
// from its group. Rank 0's read is the slowest by far. The nodes in
// `lost_mid_read` die 0.1 ms into the pass, while every read is in flight.
struct PassResult {
  int calls = 0;
  bool ok = false;
  sim::Time issued = 0;
  sim::Time landed = 0;
  sim::Time slowest = 0;  // rank 0's LOCAL read
  ckpt::StagingStats at_issue, midway, after;
};

PassResult restore_three_member_pass(const std::vector<int>& lost_mid_read) {
  MachineConfig cfg;
  cfg.nranks = 6;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 0, 0, 1, 1, 1});
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.redundancy = {ckpt::SchemeKind::kReedSolomon, 4, 2};
  ckpt::StagingArea area(sc);
  area.attach(m);
  // No epoch reaches the PFS: a lost LOCAL copy comes back by rebuild or
  // not at all.
  const ckpt::LevelPlan no_pfs{true, false};
  m.engine().at(1e-3, [&] {
    area.write(0, 2, 200000000, no_pfs);              // 0.2 s LOCAL read
    area.write(1, 1, 4000000, no_pfs);                // chain base
    area.write(1, 2, 400000, no_pfs, /*chain_base=*/1);
    for (int r = 2; r < 6; ++r) area.write(r, 2, 4000000, no_pfs);
  });
  PassResult res;
  const sim::Time t0 = 1.0;
  m.engine().at(t0, [&] {
    area.invalidate_node(2);
    ASSERT_EQ(area.plan_restore(0, 2).source,
              ckpt::RestorePlan::Source::kLocal);
    ASSERT_EQ(area.restore_chain(1, 2), (std::vector<uint64_t>{1, 2}));
    ASSERT_EQ(area.plan_restore(2, 2).source,
              ckpt::RestorePlan::Source::kRebuild);
    res.slowest = sc.model.read_time(ckpt::StorageLevel::kLocal, 200000000);
    res.issued = m.engine().now();
    area.execute_restore({0, 1, 2}, 2, [&](bool ok) {
      ++res.calls;
      res.ok = ok;
      res.landed = m.engine().now();
    });
    res.at_issue = area.stats();
  });
  m.engine().at(t0 + 1e-4, [&] {
    for (int node : lost_mid_read) area.invalidate_node(node);
  });
  // Every read but rank 0's has landed by now (the rebuild streams ~1 MB
  // per source).
  m.engine().at(t0 + 0.15, [&] { res.midway = area.stats(); });
  EXPECT_TRUE(m.run().completed);
  res.after = area.stats();
  return res;
}

// The pass completes once, when its slowest read lands, and every read
// counts when it lands: nothing at issue, the chain's two LOCAL reads and the
// rebuild before rank 0's read, all four by the end.
TEST(Staging, RestorePassCountsEachReadWhenItLands) {
  const PassResult res = restore_three_member_pass({});
  EXPECT_EQ(res.calls, 1);
  EXPECT_TRUE(res.ok);
  EXPECT_DOUBLE_EQ(res.landed, res.issued + res.slowest);
  EXPECT_EQ(res.at_issue.restores_by_level, (std::array<uint64_t, 3>{0, 0, 0}));
  EXPECT_EQ(res.at_issue.rebuild_restores, 0u);
  EXPECT_EQ(res.midway.restores_by_level, (std::array<uint64_t, 3>{2, 0, 0}));
  EXPECT_EQ(res.midway.rebuild_restores, 1u);
  EXPECT_EQ(res.after.restores_by_level, (std::array<uint64_t, 3>{3, 0, 0}));
  EXPECT_EQ(res.after.rebuild_restores, 1u);
  EXPECT_EQ(res.after.restore_retries, 0u);
}

// Two rebuild sources die mid-read: the retry finds three of six symbols
// unknown under RS(4, 2) and no PFS copy, so the pass fails and the caller
// must fall back an epoch. It still reports once, after its last read, and
// the direct reads that landed count, as a landed rebuild would.
TEST(Staging, AbandonedRestorePassCountsTheReadsThatLanded) {
  const PassResult res = restore_three_member_pass({3, 4});
  EXPECT_EQ(res.calls, 1);
  EXPECT_FALSE(res.ok);
  EXPECT_DOUBLE_EQ(res.landed, res.issued + res.slowest);
  EXPECT_EQ(res.after.restores_by_level, (std::array<uint64_t, 3>{3, 0, 0}));
  EXPECT_EQ(res.after.rebuild_restores, 0u);
  EXPECT_EQ(res.after.restore_retries, 1u);
}

// Rank 0's node dies 0.1 ms into its 0.2 s LOCAL read. That read lands from
// dead storage, so it fails, is not counted, and rank 0 re-plans as an
// RS(4, 2) rebuild. Rank 2's rebuild read from node 0 as well and re-plans
// too. The pass succeeds once both rebuilds land, after rank 0's LOCAL read
// would have.
TEST(Staging, ReadWhoseSourceDiedFailsAndReplans) {
  const PassResult res = restore_three_member_pass({0});
  EXPECT_EQ(res.calls, 1);
  EXPECT_TRUE(res.ok);
  EXPECT_GT(res.landed, res.issued + res.slowest);
  EXPECT_EQ(res.after.restores_by_level, (std::array<uint64_t, 3>{2, 0, 0}));
  EXPECT_EQ(res.after.rebuild_restores, 2u);
  EXPECT_EQ(res.after.restore_retries, 2u);
}

// Records when the failed cluster respawns and what its restore pass read,
// planned from the residency at detection time (the pass reads the same
// plans: nothing changes residency within the detection event).
class RestoreTimedProtocol : public core::SpbcProtocol {
 public:
  using core::SpbcProtocol::SpbcProtocol;

  void on_failure(int victim) override {
    core::SpbcProtocol::on_failure(victim);
    const int cluster = machine->cluster_of(victim);
    const uint64_t epoch = committed_epoch(cluster);
    sim::Time slowest = 0;
    for (int r : machine->ranks_in_cluster(cluster)) {
      const std::vector<uint64_t> chain = staging().restore_chain(r, epoch);
      if (chain.size() > 1) ++delta_chains;
      for (uint64_t e : chain) {
        const ckpt::RestorePlan plan = staging().plan_restore(r, e);
        if (plan.source == ckpt::RestorePlan::Source::kRebuild) {
          ++rebuild_reads;
        } else {
          EXPECT_EQ(plan.source, ckpt::RestorePlan::Source::kLocal);
          ++local_reads;
          const ckpt::RestorePlan::Read& rd = plan.reads.front();
          slowest = std::max(
              slowest, staging().config().model.read_time(rd.level, rd.bytes));
        }
      }
    }
    expected_respawn =
        machine->engine().now() + slowest + machine->config().restart_delay;
  }

  void on_rank_start(Rank& rank, bool restarted) override {
    if (restarted) respawns.push_back(rank.machine().engine().now());
  }

  Machine* machine = nullptr;
  sim::Time expected_respawn = -1;
  int local_reads = 0;
  int rebuild_reads = 0;
  int delta_chains = 0;
  std::vector<sim::Time> respawns;
};

// The protocol's half of the pass: a permanent node loss in a three-member
// cluster rebuilds the victim from its XOR group while the peers re-read
// their LOCAL delta chains, and the cluster respawns at detection time plus
// the slowest read plus restart_delay. The LOCAL device is slow, so a LOCAL
// read is the slowest.
TEST(Staging, ClusterRespawnsRestartDelayAfterItsSlowestRead) {
  MachineConfig cfg;
  cfg.nranks = 12;
  cfg.ranks_per_node = 1;
  cfg.spare_nodes = 1;
  cfg.default_failure_kind = mpi::FailureKind::kNodePermanent;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.storage_model.pfs_bw = 1.0e5;   // flushes lag: the victim rebuilds
  scfg.storage_model.local_bw = 1.0e7;
  scfg.redundancy = {ckpt::SchemeKind::kReedSolomon, 3, 1};
  scfg.reduction.delta = true;
  scfg.state_model.bytes = 64 * 1024;
  auto proto = std::make_unique<RestoreTimedProtocol>(scfg);
  RestoreTimedProtocol* p = proto.get();
  Machine m(cfg, std::move(proto));
  p->machine = &m;
  m.set_cluster_of({0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3});
  m.launch([](Rank& r) {
    int iter = 0;
    r.set_state_handlers([&iter](util::ByteWriter& w) { w.put(iter); },
                         [&iter](util::ByteReader& rd) { iter = rd.get<int>(); });
    if (r.restarted()) r.restore_app_state();
    const mpi::Comm& w = r.world();
    const int n = r.nranks();
    for (; iter < 6;) {
      mpi::Request rq = r.irecv((r.rank() - 1 + n) % n, 1, w);
      r.isend((r.rank() + 1) % n, 1, Payload::make_synthetic(256, 7), w);
      r.wait(rq);
      r.compute(2e-2);
      ++iter;
      r.maybe_checkpoint();
    }
  });
  m.inject_failure(0.1, 4);
  mpi::RunResult res = m.run();
  ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  ASSERT_EQ(p->rollbacks(), 1u);
  EXPECT_GE(p->delta_chains, 1);
  EXPECT_GE(p->local_reads, 1);
  EXPECT_GE(p->rebuild_reads, 1);
  ASSERT_EQ(p->respawns.size(), 3u);
  for (sim::Time t : p->respawns) EXPECT_DOUBLE_EQ(t, p->expected_respawn);
  // One count per landed read.
  const ckpt::StagingStats& st = p->staging().stats();
  EXPECT_EQ(st.restores_by_level,
            (std::array<uint64_t, 3>{static_cast<uint64_t>(p->local_reads), 0,
                                     0}));
  EXPECT_EQ(st.rebuild_restores, static_cast<uint64_t>(p->rebuild_reads));
}

// Migration's rename on an enabled staging area: the entry moves to its new
// epoch number with its residency, fragments and chain anchor; the PFS
// frontier follows it; a drain still in flight under the old number aborts;
// and a restore of the new number reads the moved copies.
TEST(Staging, RenameEpochMovesTheEntryAndAbortsStaleDrains) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 0, 1, 1});
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.model.pfs_bw = 1.0e6;  // a 100 KB flush takes ~0.1 s
  sc.redundancy.kind = ckpt::SchemeKind::kPartner;
  ckpt::StagingArea area(sc);
  area.attach(m);
  m.engine().at(1e-3, [&] { area.write(0, 1, 100000); });
  std::vector<ckpt::Fragment> frags_before;
  m.engine().at(0.5, [&] {
    // Epoch 1 reached every level; rename it 1 -> 4.
    ASSERT_EQ(area.levels(0, 1), ckpt::kAtLocal | ckpt::kAtPartner | ckpt::kAtPfs);
    ASSERT_EQ(area.pfs_frontier(0), 1u);
    frags_before = *area.fragments(0, 1);
    area.rename_epoch(0, 1, 4);
    EXPECT_EQ(area.levels(0, 1), 0);
    EXPECT_EQ(area.fragments(0, 1), nullptr);
    EXPECT_EQ(area.levels(0, 4), ckpt::kAtLocal | ckpt::kAtPartner | ckpt::kAtPfs);
    ASSERT_NE(area.fragments(0, 4), nullptr);
    ASSERT_EQ(area.fragments(0, 4)->size(), frags_before.size());
    for (size_t i = 0; i < frags_before.size(); ++i) {
      EXPECT_EQ((*area.fragments(0, 4))[i].host_node, frags_before[i].host_node);
      EXPECT_EQ((*area.fragments(0, 4))[i].live, frags_before[i].live);
    }
    // chain_base moved with it: epoch 4 anchors its own chain.
    EXPECT_EQ(area.restore_chain(0, 4), (std::vector<uint64_t>{4}));
    EXPECT_EQ(area.pfs_frontier(0), 4u);
    // A second epoch whose flush is still queued when it is renamed 2 -> 6.
    area.write(0, 2, 100000);
  });
  uint64_t aborted_before = 0;
  m.engine().at(0.55, [&] {
    ASSERT_EQ(area.levels(0, 2), ckpt::kAtLocal | ckpt::kAtPartner)
        << "the flush must still be in flight";
    aborted_before = area.stats().drains_aborted;
    area.rename_epoch(0, 2, 6);
  });
  int restores = 0;
  m.engine().at(1.0, [&] {
    // The stale flush landed under epoch 2, found no entry and aborted: the
    // renamed epoch never claims a PFS copy it does not have.
    EXPECT_EQ(area.stats().drains_aborted, aborted_before + 1);
    EXPECT_EQ(area.levels(0, 6), ckpt::kAtLocal | ckpt::kAtPartner);
    EXPECT_EQ(area.pfs_frontier(0), 4u);
    // The owner's node dies: both renamed epochs restore from the buddy copy
    // that moved with them.
    area.invalidate_node(0);
    for (uint64_t e : {4u, 6u}) {
      ASSERT_TRUE(area.recoverable(0, e));
      area.execute_restore({0}, e, [&](bool ok) {
        EXPECT_TRUE(ok);
        ++restores;
      });
    }
  });
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(restores, 2);
  EXPECT_EQ(area.stats().restores_by_level,
            (std::array<uint64_t, 3>{0, 2, 0}));
}

}  // namespace
}  // namespace spbc
