// Failure-injection edge cases: crashes landing at awkward protocol moments
// — during a checkpoint wave, during a collective, immediately after
// launch, near the end of the run, twice in the same cluster, and under
// pure message logging / per-node clustering presets.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>

#include "baselines/presets.hpp"
#include "core/spbc.hpp"
#include "mpi/collectives.hpp"
#include "mpi/machine.hpp"

namespace spbc {
namespace {

using mpi::Machine;
using mpi::MachineConfig;
using mpi::Payload;
using mpi::Rank;

// Workload with both halo traffic and a collective per iteration, plus
// checkpoints — enough structure for a failure to land anywhere interesting.
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
                512, static_cast<uint64_t>(r.rank() * 1000 + st.iter)),
            w);
    r.wait(rq);
    util::Fnv1a64 h;
    h.update_u64(st.sum);
    h.update_u64(rq.result().hash);
    st.sum = h.digest();
    r.compute(5e-4);
    double g = mpi::allreduce_scalar(r, static_cast<double>(st.iter),
                                     mpi::ReduceOp::kSum, w);
    h.update(&g, sizeof(g));
    st.sum = h.digest();
    ++st.iter;
    r.maybe_checkpoint();
  }
  if (sums) (*sums)[r.rank()] = st.sum;
}

struct Rig {
  std::unique_ptr<Machine> machine;
  core::SpbcProtocol* protocol = nullptr;
};

bool elastic_env() { return std::getenv("SPBC_TEST_ELASTIC") != nullptr; }

void apply_elastic_env(MachineConfig& cfg) {
  // SPBC_TEST_ELASTIC=1 upgrades every injected failure to a permanent node
  // loss with a two-deep spare pool: each edge case must survive the victim
  // node never coming back and its ranks hot-swapping onto a spare.
  if (elastic_env()) {
    cfg.spare_nodes = 2;
    cfg.default_failure_kind = mpi::FailureKind::kNodePermanent;
  }
}

Rig make_rig(std::vector<int> clusters, int ckpt_every, bool colocate = true) {
  MachineConfig cfg;
  cfg.nranks = static_cast<int>(clusters.size());
  cfg.ranks_per_node = 2;
  cfg.abort_on_deadlock = false;
  cfg.enforce_node_colocation = colocate;
  apply_elastic_env(cfg);
  core::SpbcConfig scfg;
  scfg.checkpoint_every = static_cast<uint64_t>(ckpt_every);
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  Rig rig;
  rig.protocol = proto.get();
  rig.machine = std::make_unique<Machine>(cfg, std::move(proto));
  rig.machine->set_cluster_of(std::move(clusters));
  return rig;
}

std::map<int, uint64_t> reference(int nranks, int iters) {
  std::map<int, uint64_t> sums;
  Rig rig = make_rig(std::vector<int>(static_cast<size_t>(nranks), 0), 0);
  rig.machine->launch([iters, &sums](Rank& r) { workload(r, iters, &sums); });
  EXPECT_TRUE(rig.machine->run().completed);
  return sums;
}

class FailureSweep : public ::testing::TestWithParam<double> {};

// A dense sweep of failure times across the whole run, including times that
// land inside checkpoint waves and collectives.
TEST_P(FailureSweep, RecoversAtAnyInstant) {
  const int n = 8, iters = 10;
  static const auto expect = reference(n, iters);
  // Failure-free elapsed for this workload is ~16ms; sweep across it.
  double t = GetParam();
  std::map<int, uint64_t> sums;
  Rig rig = make_rig({0, 0, 1, 1, 2, 2, 3, 3}, 3);
  rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
  rig.machine->inject_failure(t, 2);
  mpi::RunResult res = rig.machine->run();
  ASSERT_TRUE(res.completed) << "t=" << t << " deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect) << "t=" << t;
}

INSTANTIATE_TEST_SUITE_P(DenseTimes, FailureSweep,
                         ::testing::Values(0.0004, 0.0011, 0.0019, 0.0027, 0.0035,
                                           0.0044, 0.0052, 0.0061, 0.0070, 0.0078));

TEST(FailureEdge, ImmediatelyAfterLaunch) {
  const int n = 4, iters = 6;
  auto expect = reference(n, iters);
  std::map<int, uint64_t> sums;
  Rig rig = make_rig({0, 0, 1, 1}, 2);
  rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
  rig.machine->inject_failure(1e-6, 0);  // before any real progress
  ASSERT_TRUE(rig.machine->run().completed);
  EXPECT_EQ(sums, expect);
}

TEST(FailureEdge, TwoFailuresSameCluster) {
  const int n = 8, iters = 12;
  auto expect = reference(n, iters);
  std::map<int, uint64_t> sums;
  Rig rig = make_rig({0, 0, 1, 1, 2, 2, 3, 3}, 3);
  rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
  rig.machine->inject_failure(0.003, 2);
  rig.machine->inject_failure(0.012, 3);  // same cluster, after first recovery
  mpi::RunResult res = rig.machine->run();
  ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect);
  EXPECT_EQ(rig.protocol->rollbacks(), 2u);
}

TEST(FailureEdge, PureMessageLoggingRecoversSingleRank) {
  const int n = 4, iters = 8;
  auto expect = reference(n, iters);
  std::map<int, uint64_t> sums;
  Rig rig = make_rig(baselines::per_rank_cluster_map(n), 2, /*colocate=*/false);
  rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
  rig.machine->inject_failure(0.004, 1);
  ASSERT_TRUE(rig.machine->run().completed);
  EXPECT_EQ(sums, expect);
  // Perfect containment: only the failed process rolled back — except under
  // a permanent node loss, where the victim's node co-resident (rank 0, a
  // distinct per-rank cluster) physically dies with the node and restarts
  // too.
  for (int r = 0; r < n; ++r) {
    const bool dies = elastic_env() ? (r == 0 || r == 1) : (r == 1);
    EXPECT_EQ(rig.machine->rank(r).restarted(), dies) << "rank " << r;
  }
}

TEST(FailureEdge, PerNodeClusteringContainsNodeFailure) {
  const int n = 8, iters = 8;
  auto expect = reference(n, iters);
  std::map<int, uint64_t> sums;
  Rig rig = make_rig(baselines::per_node_cluster_map(n, 2), 2);
  rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
  rig.machine->inject_failure(0.004, 4);  // node 2 = ranks {4,5}
  ASSERT_TRUE(rig.machine->run().completed);
  EXPECT_EQ(sums, expect);
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(rig.machine->rank(r).restarted(), r == 4 || r == 5) << "rank " << r;
}

TEST(FailureEdge, VictimChoiceIsIrrelevantWithinCluster) {
  // Killing rank 2 or rank 3 of cluster {2,3} must both recover the same way.
  const int n = 8, iters = 10;
  auto expect = reference(n, iters);
  for (int victim : {2, 3}) {
    std::map<int, uint64_t> sums;
    Rig rig = make_rig({0, 0, 1, 1, 2, 2, 3, 3}, 3);
    rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
    rig.machine->inject_failure(0.005, victim);
    ASSERT_TRUE(rig.machine->run().completed) << "victim " << victim;
    EXPECT_EQ(sums, expect) << "victim " << victim;
    const auto& rec = rig.machine->recoveries().at(0);
    EXPECT_EQ(rec.failed_cluster, 1);
  }
}

// Regression: repeated failures across clusters with rendezvous-sized halo
// traffic. This combination exposed three distinct protocol holes during
// development: (1) stale RTSs from a dead incarnation being matched by later
// requests (CTS into the void), (2) rewound rendezvous requests unable to
// re-match a re-sent RTS that arrived before the Rollback, and (3) stale
// LS-suppression windows after the *peer* of a previously-rolled-back rank
// itself rolls back.
TEST(FailureEdge, RepeatedFailuresWithRendezvousTraffic) {
  const int n = 8, iters = 14;
  MachineConfig base;
  base.eager_threshold = 256;  // everything is rendezvous
  apply_elastic_env(base);
  auto make = [&](std::vector<int> clusters, int every) {
    MachineConfig cfg = base;
    cfg.nranks = n;
    cfg.ranks_per_node = 2;
    cfg.abort_on_deadlock = false;
    core::SpbcConfig scfg;
    scfg.checkpoint_every = static_cast<uint64_t>(every);
    Rig rig;
    auto proto = std::make_unique<core::SpbcProtocol>(scfg);
    rig.protocol = proto.get();
    rig.machine = std::make_unique<Machine>(cfg, std::move(proto));
    rig.machine->set_cluster_of(std::move(clusters));
    return rig;
  };
  std::map<int, uint64_t> expect;
  {
    Rig rig = make(std::vector<int>(n, 0), 0);
    rig.machine->launch([&expect](Rank& r) { workload(r, iters, &expect); });
    ASSERT_TRUE(rig.machine->run().completed);
  }
  std::map<int, uint64_t> sums;
  Rig rig = make({0, 0, 1, 1, 2, 2, 3, 3}, 3);
  rig.machine->launch([&sums](Rank& r) { workload(r, iters, &sums); });
  // Staggered failures across three clusters, including a repeat.
  rig.machine->inject_failure(0.0030, 2);  // cluster 1
  rig.machine->inject_failure(0.0075, 4);  // cluster 2, during 1's tail
  rig.machine->inject_failure(0.0150, 3);  // cluster 1 again
  rig.machine->inject_failure(0.0230, 0);  // cluster 0
  mpi::RunResult res = rig.machine->run();
  ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect);
  // Elastic runs see a fifth rollback: the fourth node loss hits a node a
  // shrunk restart had packed cluster 1 onto, so that cluster rolls back as
  // collateral alongside cluster 0.
  EXPECT_EQ(rig.protocol->rollbacks(), elastic_env() ? 5u : 4u);
}

TEST(FailureEdge, DroppedInFlightAreAccounted) {
  const int iters = 10;
  Rig rig = make_rig({0, 0, 1, 1, 2, 2, 3, 3}, 3);
  rig.machine->launch([](Rank& r) { workload(r, iters, nullptr); });
  rig.machine->inject_failure(0.005, 2);
  ASSERT_TRUE(rig.machine->run().completed);
  // The crash cut messages mid-flight; the filter must have seen them.
  // Under a permanent loss the victim is tombstoned, so post-crash sends to
  // it are dropped at the source (tombstone accounting) instead of dying
  // inside the transport.
  if (elastic_env())
    EXPECT_GT(rig.machine->dropped_in_flight() + rig.machine->tombstone_drops(),
              0u);
  else
    EXPECT_GT(rig.machine->dropped_in_flight(), 0u);
}

}  // namespace
}  // namespace spbc
