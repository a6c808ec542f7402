// Elastic recovery end-to-end: spare-node hot-swap rebuilds the victims'
// state from redundancy shares without touching the PFS, a pool-exhausted
// permanent loss degrades to a shrunk restart with checksum-identical
// results, a second failure during a spare rebuild re-plans instead of
// aborting, the streaming repartitioner migrates checkpoint-group
// membership under communication drift, and the whole elastic trajectory is
// bit-identical across event-engine shard layouts.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/reduction.hpp"
#include "ckpt/staging.hpp"
#include "ckpt/store.hpp"
#include "core/spbc.hpp"
#include "mpi/collectives.hpp"
#include "mpi/machine.hpp"

namespace spbc {
namespace {

using mpi::Machine;
using mpi::MachineConfig;
using mpi::Payload;
using mpi::Rank;

// Ring + checksum workload: every iteration exchanges one message with each
// neighbor and folds the received hash into the rank's running state, so a
// wrong or missing restore shows up as a final-sum mismatch.
void workload(Rank& r, int iters, std::map<int, uint64_t>* sums) {
  struct St {
    int iter = 0;
    uint64_t sum = 0;
  } st;
  r.set_state_handlers(
      [&st](util::ByteWriter& w) { w.put(st); },
      [&st](util::ByteReader& rd) { st = rd.get<decltype(st)>(); });
  if (r.restarted()) r.restore_app_state();
  const mpi::Comm& w = r.world();
  int n = r.nranks();
  for (; st.iter < iters;) {
    int to = (r.rank() + 1) % n;
    int from = (r.rank() - 1 + n) % n;
    mpi::Request rq = r.irecv(from, 1, w);
    r.isend(to, 1,
            Payload::make_synthetic(
                256, static_cast<uint64_t>(r.rank() * 100 + st.iter)),
            w);
    r.wait(rq);
    util::Fnv1a64 h;
    h.update_u64(st.sum);
    h.update_u64(rq.result().hash);
    st.sum = h.digest();
    r.compute(2e-3);
    ++st.iter;
    r.maybe_checkpoint();
  }
  if (sums) (*sums)[r.rank()] = st.sum;
}

// XOR-over-async-staging config (XOR parity over 4-node groups is RS(3, 1))
// with a PFS slow enough that flushes lag the run: a permanent node loss
// then MUST come back through the group rebuild, not a PFS read.
core::SpbcConfig xor_config() {
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.storage_model.pfs_bw = 1.0e5;
  scfg.redundancy = {ckpt::SchemeKind::kReedSolomon, 3, 1};
  return scfg;
}

struct Rig {
  std::unique_ptr<Machine> machine;
  core::SpbcProtocol* protocol = nullptr;
};

Rig make_rig(const MachineConfig& cfg, const core::SpbcConfig& scfg,
             std::vector<int> clusters) {
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  Rig rig;
  rig.protocol = proto.get();
  rig.machine = std::make_unique<Machine>(cfg, std::move(proto));
  rig.machine->set_cluster_of(std::move(clusters));
  return rig;
}

MachineConfig elastic_cfg(int nranks, int spares) {
  MachineConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 2;
  cfg.abort_on_deadlock = false;
  cfg.spare_nodes = spares;
  cfg.default_failure_kind = mpi::FailureKind::kNodePermanent;
  return cfg;
}

std::map<int, uint64_t> reference(int nranks, int iters) {
  std::map<int, uint64_t> sums;
  MachineConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 2;
  Rig rig = make_rig(cfg, core::SpbcConfig{},
                     std::vector<int>(static_cast<size_t>(nranks), 0));
  rig.machine->launch([iters, &sums](Rank& r) { workload(r, iters, &sums); });
  EXPECT_TRUE(rig.machine->run().completed);
  return sums;
}

// A permanent node loss with spares pooled: the dead node's ranks hot-swap
// onto a spare, their state is rebuilt from surviving XOR fragments (the
// PFS is never read), and the run finishes checksum-identical to the
// failure-free execution.
TEST(Elastic, SpareSwapRebuildsWithoutPfs) {
  const int n = 8, iters = 8;
  auto expect = reference(n, iters);
  std::map<int, uint64_t> sums;
  Rig rig = make_rig(elastic_cfg(n, 2), xor_config(), {0, 0, 1, 1, 2, 2, 3, 3});
  rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
  rig.machine->inject_failure(9e-3, 2);  // node 1 never returns
  mpi::RunResult res = rig.machine->run();
  ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect);
  EXPECT_EQ(rig.machine->spare_swaps(), 1u);
  EXPECT_EQ(rig.machine->shrink_restarts(), 0u);
  EXPECT_TRUE(rig.machine->node_retired(1));
  // The victims now live on the swapped-in spare (ids follow the compute
  // nodes), and the colocation invariant survived the move.
  EXPECT_GE(rig.machine->node_of(2), 4);
  EXPECT_EQ(rig.machine->node_of(2), rig.machine->node_of(3));
  EXPECT_EQ(rig.machine->spares_available(), 1);
  const ckpt::StagingStats& st = rig.protocol->staging().stats();
  EXPECT_GE(st.rebuild_restores, 1u);
  EXPECT_EQ(st.restores_by_level[2], 0u) << "rebuild must not read the PFS";
}

// Same loss with an empty pool: the machine degrades to a shrunk restart —
// the victims re-pack onto a surviving node — and still restores
// checksum-identical state through the shadow-coded fragments.
TEST(Elastic, PoolExhaustedShrinkRestoresState) {
  const int n = 8, iters = 8;
  auto expect = reference(n, iters);
  std::map<int, uint64_t> sums;
  Rig rig = make_rig(elastic_cfg(n, 0), xor_config(), {0, 0, 1, 1, 2, 2, 3, 3});
  rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
  rig.machine->inject_failure(9e-3, 2);
  mpi::RunResult res = rig.machine->run();
  ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect);
  EXPECT_EQ(rig.machine->spare_swaps(), 0u);
  EXPECT_EQ(rig.machine->shrink_restarts(), 1u);
  // Packed onto a surviving compute node, not the retired one.
  EXPECT_LT(rig.machine->node_of(2), 4);
  EXPECT_NE(rig.machine->node_of(2), 1);
  EXPECT_FALSE(rig.machine->node_retired(rig.machine->node_of(2)));
}

// A second permanent loss landing while the first cluster's spare rebuild is
// still in flight (within the restart delay) must re-plan — both clusters
// recover, both victims end on spares, and the checksums still match.
TEST(Elastic, SecondFailureDuringRebuildReplans) {
  const int n = 8, iters = 8;
  auto expect = reference(n, iters);
  std::map<int, uint64_t> sums;
  Rig rig = make_rig(elastic_cfg(n, 2), xor_config(), {0, 0, 1, 1, 2, 2, 3, 3});
  rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
  rig.machine->inject_failure(9e-3, 2);     // cluster 1, node 1
  rig.machine->inject_failure(1.05e-2, 4);  // cluster 2, during 1's rebuild
  mpi::RunResult res = rig.machine->run();
  ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect);
  EXPECT_EQ(rig.machine->spare_swaps(), 2u);
  EXPECT_EQ(rig.machine->shrink_restarts(), 0u);
  EXPECT_EQ(rig.machine->spares_available(), 0);
  EXPECT_EQ(rig.protocol->rollbacks(), 2u);
  const ckpt::StagingStats& st = rig.protocol->staging().stats();
  EXPECT_GE(st.rebuild_restores, 1u);
  EXPECT_EQ(st.restores_by_level[2], 0u);
}

// Communication drift: an interleaved node-granular map leaves the ring's
// cut twice as large as necessary. The streaming repartitioner must notice
// from the live traffic matrix and migrate at least one node's membership
// through the quiescence bridge — without disturbing the application. A
// migrated rank keeps its original event shard, so with one queue per
// cluster its intra-cluster sends land on another queue: both layouts must
// run, and run the same trajectory.
TEST(Elastic, RepartitionerMigratesUnderDrift) {
  const int n = 8, iters = 14;
  auto expect = reference(n, iters);
  sim::Time finish[2] = {0, 0};
  for (int shards : {1, 0}) {
    SCOPED_TRACE("engine_shards=" + std::to_string(shards));
    std::map<int, uint64_t> sums;
    MachineConfig cfg;
    cfg.nranks = n;
    cfg.ranks_per_node = 2;
    cfg.abort_on_deadlock = false;
    cfg.engine_shards = shards;
    core::SpbcConfig scfg;
    scfg.checkpoint_every = 2;
    scfg.control.repartition_period = 2e-3;
    // Nodes alternate clusters: half the ring's hops cross the cut.
    Rig rig = make_rig(cfg, scfg, {0, 0, 1, 1, 0, 0, 1, 1});
    rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
    mpi::RunResult res = rig.machine->run();
    ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
    finish[shards] = res.finish_time;
    EXPECT_EQ(sums, expect);
    EXPECT_GE(rig.protocol->control_plane().stats().repartitions, 1u);
    // The flip really moved membership: some node's ranks changed cluster.
    bool moved = false;
    const std::vector<int> initial = {0, 0, 1, 1, 0, 0, 1, 1};
    for (int r = 0; r < n; ++r)
      if (rig.machine->cluster_of(r) != initial[static_cast<size_t>(r)])
        moved = true;
    EXPECT_TRUE(moved);
    // The cached member lists followed the migrations.
    for (int c = 0; c < rig.machine->nclusters(); ++c) {
      std::vector<int> members;
      for (int r = 0; r < n; ++r)
        if (rig.machine->cluster_of(r) == c) members.push_back(r);
      EXPECT_EQ(rig.machine->ranks_in_cluster(c), members) << "cluster " << c;
    }
  }
  EXPECT_EQ(finish[0], finish[1]);
}

// SPBC that keeps the state model's flat image (make_state, then
// evolve_state by every epoch the rank cuts) beside each rank's state image.
// Each cut is keyed by its capture time, which rename_epoch keeps, so a
// capture re-keyed by a migration flip still finds the flat image it was
// cut from. At every rollback the rank's synthesized image is compared with
// that flat image, which the run then continues from.
class FlatStateProbe : public core::SpbcProtocol {
 public:
  using SpbcProtocol::SpbcProtocol;

  struct Cut {
    uint64_t epoch;  // the epoch the rank cut, before any rename
    int cluster;     // the rank's cluster at the cut
    std::vector<unsigned char> flat;
  };
  struct Restored {
    int rank;
    uint64_t epoch;
    bool matches;
    // The restore decoded a delta chain whose full base a flip renamed.
    bool past_renamed_base;
  };

  bool maybe_checkpoint(Rank& rank) override {
    const int r = rank.rank();
    const uint64_t before = snapshot_epoch(r);
    // Unscheduled cuts by rank 0 between its first scheduled ones put its
    // cluster epochs ahead of the other, so a flip between them renames
    // the boundary epoch to a different number.
    if (r == 0 && ++calls0_ <= 5 && calls0_ % 2 == 1) {
      checkpoint_now(rank);
      note_cuts(r, before);
    }
    const uint64_t mid = snapshot_epoch(r);
    const bool cut = SpbcProtocol::maybe_checkpoint(rank);
    note_cuts(r, mid);
    return cut;
  }

  void on_rank_start(Rank& rank, bool restarted) override {
    SpbcProtocol::on_rank_start(rank, restarted);
    const int r = rank.rank();
    if (!restarted) {  // first start, or a rollback to sigma_0
      flat_.erase(r);
      return;
    }
    const uint64_t e = snapshot_epoch(r);
    const ckpt::StoredSnapshot& snap = store().at_epoch(r, e);
    const Cut& cut = cuts.at({r, snap.taken_at});
    const uint64_t base = snap.chain_base;
    const bool renamed = cuts.at({r, store().at_epoch(r, base).taken_at}).epoch != base;
    restored.push_back(
        {r, e, synthetic_state(r).synthesize() == cut.flat, renamed && e > base});
    flat_[r] = cut.flat;
  }

  std::map<std::pair<int, sim::Time>, Cut> cuts;
  std::vector<Restored> restored;

 private:
  // Records the cut rank `r` made since its snapshot epoch was `before`.
  void note_cuts(int r, uint64_t before) {
    const uint64_t e = snapshot_epoch(r);
    if (e == before) return;
    auto [it, fresh] = flat_.try_emplace(r);
    if (fresh) it->second = ckpt::make_state(config().state_model, r);
    ckpt::evolve_state(it->second, config().state_model, r, e);
    cuts.insert_or_assign({r, store().at_epoch(r, e).taken_at},
                          Cut{e, machine_->cluster_of(r), it->second});
  }

  int calls0_ = 0;
  std::map<int, std::vector<unsigned char>> flat_;
};

// RepartitionerMigratesUnderDrift with an evolving state model under delta
// captures and compression: a unit flips, the movers' boundary epoch is
// renamed into the destination's epoch space, and a failure then rolls a
// mover back to an epoch it cut after the flip. Its state image, rebuilt
// from the stored block versions (some written in the source cluster's
// epochs), must equal the flat model, as must the state region of every
// capture the failure-free run retains.
TEST(Elastic, RepartitionerMigratesUnderDriftWithStateModel) {
  const int n = 8, iters = 14;
  const std::vector<int> initial = {0, 0, 1, 1, 0, 0, 1, 1};
  MachineConfig cfg;
  cfg.nranks = n;
  cfg.ranks_per_node = 2;
  cfg.abort_on_deadlock = false;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 2;
  scfg.control.repartition_period = 4e-3;
  scfg.reduction.delta = true;
  scfg.reduction.block_bytes = 256;
  scfg.reduction.full_stride = 4;
  scfg.reduction.compress = true;
  scfg.state_model.bytes = 4096;
  scfg.state_model.block_bytes = 256;
  scfg.state_model.mutation_rate = 0.2;
  scfg.state_model.seed = 3;
  struct Run {
    std::unique_ptr<Machine> machine;
    FlatStateProbe* probe;
    std::map<int, uint64_t> sums;
    sim::Time finish;
  };
  auto run = [&](std::vector<std::pair<sim::Time, int>> failures) {
    auto proto = std::make_unique<FlatStateProbe>(scfg);
    Run out{nullptr, proto.get(), {}, 0};
    out.machine = std::make_unique<Machine>(cfg, std::move(proto));
    out.machine->set_cluster_of(initial);
    std::map<int, uint64_t>* sums = &out.sums;
    out.machine->launch([sums](Rank& r) { workload(r, iters, sums); });
    for (const auto& [t, victim] : failures) out.machine->inject_failure(t, victim);
    const mpi::RunResult res = out.machine->run();
    EXPECT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
    out.finish = res.finish_time;
    return out;
  };

  const Run ff = run({});
  EXPECT_EQ(ff.sums, reference(n, iters));
  ASSERT_GE(ff.probe->control_plane().stats().repartitions, 1u);
  // The movers and their first cut after the flip (cuts iterate in time
  // order per rank).
  std::map<int, sim::Time> first_moved_cut;
  for (const auto& [key, cut] : ff.probe->cuts)
    if (cut.cluster != initial[static_cast<size_t>(key.first)])
      first_moved_cut.try_emplace(key.first, key.second);
  ASSERT_FALSE(first_moved_cut.empty()) << "no rank cut an epoch after a flip";
  uint64_t retained = 0;
  for (int r = 0; r < n; ++r) {
    for (uint64_t e = 1; e <= ff.probe->snapshot_epoch(r); ++e) {
      if (!ff.probe->store().has_epoch(r, e)) continue;
      std::vector<unsigned char> scratch;
      const std::vector<unsigned char>& bytes = ff.probe->store().materialize(r, e, scratch);
      const FlatStateProbe::Cut& cut =
          ff.probe->cuts.at({r, ff.probe->store().at_epoch(r, e).taken_at});
      ASSERT_GE(bytes.size(), scfg.state_model.bytes);
      EXPECT_TRUE(std::equal(cut.flat.begin(), cut.flat.end(), bytes.begin()))
          << "rank " << r << " epoch " << e;
      ++retained;
    }
  }
  EXPECT_GT(retained, 0u);

  // Fail a mover at several points after its first post-flip cut.
  const auto [mover, moved_at] = *first_moved_cut.begin();
  int restores = 0, past_rename = 0;
  for (int i = 0; i < 4; ++i) {
    const sim::Time t = moved_at + (ff.finish - moved_at) * (0.2 + 0.2 * i);
    const Run fr = run({{t, mover}});
    EXPECT_EQ(fr.sums, ff.sums) << "failure at " << t;
    for (const FlatStateProbe::Restored& rs : fr.probe->restored) {
      EXPECT_TRUE(rs.matches) << "rank " << rs.rank << " restored epoch " << rs.epoch;
      ++restores;
      past_rename += rs.past_renamed_base;
    }
  }
  EXPECT_GT(restores, 0);
  EXPECT_GT(past_rename, 0) << "no mover was restored past its renamed boundary epoch";
}

// Determinism across shard layouts: the elastic trajectory (hot-swap,
// rebuild, recovery) is a function of the cluster map only — running the
// same failure schedule with one physical shard queue vs one-per-cluster
// must produce identical checksums, finish times, and swap counts.
TEST(Elastic, DeterministicAcrossShardLayouts) {
  const int n = 8, iters = 8;
  auto run_with_shards = [&](int shards, std::map<int, uint64_t>* sums,
                             uint64_t* swaps) {
    MachineConfig cfg = elastic_cfg(n, 2);
    cfg.engine_shards = shards;
    cfg.engine_threads = 1;
    Rig rig = make_rig(cfg, xor_config(), {0, 0, 1, 1, 2, 2, 3, 3});
    rig.machine->launch([sums](Rank& r) { workload(r, iters, sums); });
    rig.machine->inject_failure(9e-3, 2);
    mpi::RunResult res = rig.machine->run();
    EXPECT_TRUE(res.completed) << "shards=" << shards;
    *swaps = rig.machine->spare_swaps();
    return res.finish_time;
  };
  std::map<int, uint64_t> sums_a, sums_b;
  uint64_t swaps_a = 0, swaps_b = 0;
  const sim::Time t_a = run_with_shards(1, &sums_a, &swaps_a);
  const sim::Time t_b = run_with_shards(0, &sums_b, &swaps_b);
  EXPECT_EQ(sums_a, sums_b);
  EXPECT_EQ(t_a, t_b);
  EXPECT_EQ(swaps_a, swaps_b);
  EXPECT_EQ(swaps_a, 1u);
}

}  // namespace
}  // namespace spbc
