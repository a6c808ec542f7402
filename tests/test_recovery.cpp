// End-to-end recovery tests: Algorithm 1's full cycle — coordinated
// checkpoint, crash, cluster rollback, Rollback/lastMessage exchange, log
// replay with LS suppression, re-execution — on a small SPMD ring-stencil
// app with verifiable checksums.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>

#include "apps/app.hpp"
#include "core/spbc.hpp"
#include "mpi/collectives.hpp"
#include "mpi/machine.hpp"

namespace spbc {
namespace {

using mpi::Machine;
using mpi::MachineConfig;
using mpi::Payload;
using mpi::Rank;

struct RingOpts {
  int iters = 12;
  uint64_t bytes = 256;
  int tag = 1;
  double compute_s = 1e-3;
  std::map<int, uint64_t>* sums = nullptr;
};

// Minimal SPMD workload: ring halo exchange + compute + checkpoint call per
// iteration; checksum folds every received message.
void ring_app(Rank& r, const RingOpts& opt) {
  struct St {
    int iter = 0;
    uint64_t sum = 0;
  } st;
  r.set_state_handlers(
      [&st](util::ByteWriter& w) {
        w.put<int>(st.iter);
        w.put<uint64_t>(st.sum);
      },
      [&st](util::ByteReader& rd) {
        st.iter = rd.get<int>();
        st.sum = rd.get<uint64_t>();
      });
  if (r.restarted()) r.restore_app_state();
  const mpi::Comm& w = r.world();
  int n = r.nranks();
  int to = (r.rank() + 1) % n;
  int from = (r.rank() - 1 + n) % n;
  for (; st.iter < opt.iters;) {
    mpi::Request rq = r.irecv(from, opt.tag, w);
    uint64_t h = apps::synthetic_hash(static_cast<uint64_t>(r.rank()),
                                      static_cast<uint64_t>(st.iter), 0, 0);
    r.isend(to, opt.tag, Payload::make_synthetic(opt.bytes, h), w);
    r.wait(rq);
    util::Fnv1a64 fh;
    fh.update_u64(st.sum);
    fh.update_u64(rq.result().hash);
    st.sum = fh.digest();
    r.compute(opt.compute_s);
    ++st.iter;
    r.maybe_checkpoint();
  }
  if (opt.sums) (*opt.sums)[r.rank()] = st.sum;
}

struct Rig {
  std::unique_ptr<Machine> machine;
  core::SpbcProtocol* protocol = nullptr;
};

Rig make_rig(int nranks, int rpn, std::vector<int> clusters, int ckpt_every,
                 uint64_t eager_threshold = 64 * 1024) {
  MachineConfig cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = rpn;
  cfg.eager_threshold = eager_threshold;
  cfg.abort_on_deadlock = false;
  // SPBC_TEST_ELASTIC=1 reruns this suite with a spare-node pool and every
  // injected failure upgraded to a permanent node loss: the victim's node
  // never returns, its ranks hot-swap onto a pooled spare, and the same
  // checksum oracles must still hold across the rebind.
  if (std::getenv("SPBC_TEST_ELASTIC") != nullptr) {
    cfg.spare_nodes = 2;
    cfg.default_failure_kind = mpi::FailureKind::kNodePermanent;
  }
  core::SpbcConfig scfg;
  scfg.checkpoint_every = static_cast<uint64_t>(ckpt_every);
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  Rig s;
  s.protocol = proto.get();
  s.machine = std::make_unique<Machine>(cfg, std::move(proto));
  s.machine->set_cluster_of(std::move(clusters));
  return s;
}

std::map<int, uint64_t> failure_free_sums(int nranks, int iters) {
  std::map<int, uint64_t> sums;
  Rig s = make_rig(nranks, 2, std::vector<int>(static_cast<size_t>(nranks), 0), 0);
  RingOpts opt;
  opt.iters = iters;
  opt.sums = &sums;
  s.machine->launch([opt](Rank& r) { ring_app(r, opt); });
  EXPECT_TRUE(s.machine->run().completed);
  return sums;
}

TEST(Recovery, SingleFailureCompletesWithIdenticalResults) {
  const int n = 8, iters = 12;
  auto expect = failure_free_sums(n, iters);

  std::map<int, uint64_t> sums;
  // 4 clusters of 2 ranks (2 ranks per node).
  Rig s = make_rig(n, 2, {0, 0, 1, 1, 2, 2, 3, 3}, 3);
  RingOpts opt;
  opt.iters = iters;
  opt.sums = &sums;
  s.machine->launch([opt](Rank& r) { ring_app(r, opt); });
  s.machine->inject_failure(0.006, /*victim=*/2);  // cluster 1 rolls back
  mpi::RunResult res = s.machine->run();
  EXPECT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect);
  EXPECT_EQ(s.protocol->rollbacks(), 1u);
  ASSERT_EQ(s.machine->recoveries().size(), 1u);
  EXPECT_TRUE(s.machine->recoveries()[0].complete());
}

TEST(Recovery, FailureContainmentOnlyFailedClusterRollsBack) {
  const int n = 8, iters = 12;
  Rig s = make_rig(n, 2, {0, 0, 1, 1, 2, 2, 3, 3}, 3);
  RingOpts opt;
  opt.iters = iters;
  s.machine->launch([opt](Rank& r) { ring_app(r, opt); });
  s.machine->inject_failure(0.006, 4);  // cluster 2
  EXPECT_TRUE(s.machine->run().completed);
  // Restarted flag is set only on the failed cluster's ranks.
  for (int r = 0; r < n; ++r) {
    bool in_failed = (r == 4 || r == 5);
    EXPECT_EQ(s.machine->rank(r).restarted(), in_failed) << "rank " << r;
  }
  // Recovery record covers exactly the failed cluster.
  const auto& rec = s.machine->recoveries().at(0);
  EXPECT_EQ(rec.failed_cluster, 2);
  EXPECT_EQ(rec.target_ops.size(), 2u);
  EXPECT_TRUE(rec.target_ops.count(4));
  EXPECT_TRUE(rec.target_ops.count(5));
}

TEST(Recovery, MessagesAreReplayedFromLogs) {
  const int n = 8, iters = 12;
  Rig s = make_rig(n, 2, {0, 0, 1, 1, 2, 2, 3, 3}, 3);
  RingOpts opt;
  opt.iters = iters;
  s.machine->launch([opt](Rank& r) { ring_app(r, opt); });
  s.machine->inject_failure(0.006, 2);
  EXPECT_TRUE(s.machine->run().completed);
  // Rank 1 (cluster 0) feeds rank 2 (failed cluster) over an inter-cluster
  // channel: its replayer must have re-sent logged messages.
  EXPECT_GT(s.protocol->replayer_of(1).replayed_total(), 0u);
  // In the ring, rank 3's sends to rank 4 are the failed cluster's
  // inter-cluster output: re-executed sends the survivor already received
  // must be suppressed (LS) or at worst dropped as duplicates.
  uint64_t suppressed = s.machine->rank(3).profile().suppressed_sends +
                        s.machine->rank(4).profile().duplicate_drops;
  EXPECT_GT(suppressed, 0u);
}

TEST(Recovery, FailureBeforeFirstCheckpointRestartsFromInitialState) {
  const int n = 4, iters = 6;
  auto expect = failure_free_sums(n, iters);
  std::map<int, uint64_t> sums;
  Rig s = make_rig(n, 2, {0, 0, 1, 1}, 0);  // never checkpoints
  RingOpts opt;
  opt.iters = iters;
  opt.sums = &sums;
  s.machine->launch([opt](Rank& r) { ring_app(r, opt); });
  s.machine->inject_failure(0.003, 0);
  EXPECT_TRUE(s.machine->run().completed);
  EXPECT_EQ(sums, expect);
  // Restart-from-sigma0: ranks re-ran their mains without restore.
  EXPECT_FALSE(s.machine->rank(0).restarted());
}

TEST(Recovery, RendezvousTrafficSurvivesFailure) {
  const int n = 4, iters = 8;
  // Eager threshold below the payload size: every message is rendezvous.
  auto expect = [&] {
    std::map<int, uint64_t> sums;
    Rig s = make_rig(n, 2, {0, 0, 0, 0}, 0, /*eager=*/128);
    RingOpts opt;
    opt.iters = iters;
    opt.bytes = 4096;
    opt.sums = &sums;
    s.machine->launch([opt](Rank& r) { ring_app(r, opt); });
    EXPECT_TRUE(s.machine->run().completed);
    return sums;
  }();
  std::map<int, uint64_t> sums;
  Rig s = make_rig(n, 2, {0, 0, 1, 1}, 2, /*eager=*/128);
  RingOpts opt;
  opt.iters = iters;
  opt.bytes = 4096;
  opt.sums = &sums;
  s.machine->launch([opt](Rank& r) { ring_app(r, opt); });
  s.machine->inject_failure(0.004, 3);
  mpi::RunResult res = s.machine->run();
  EXPECT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect);
}

TEST(Recovery, SecondFailureAfterRecoveryCompletes) {
  const int n = 8, iters = 16;
  auto expect = failure_free_sums(n, iters);
  std::map<int, uint64_t> sums;
  Rig s = make_rig(n, 2, {0, 0, 1, 1, 2, 2, 3, 3}, 3);
  RingOpts opt;
  opt.iters = iters;
  opt.sums = &sums;
  s.machine->launch([opt](Rank& r) { ring_app(r, opt); });
  s.machine->inject_failure(0.006, 2);   // cluster 1
  s.machine->inject_failure(0.020, 6);   // cluster 3, later
  mpi::RunResult res = s.machine->run();
  EXPECT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect);
  EXPECT_EQ(s.protocol->rollbacks(), 2u);
}

TEST(Recovery, ConcurrentFailuresOfTwoClusters) {
  const int n = 8, iters = 16;
  auto expect = failure_free_sums(n, iters);
  std::map<int, uint64_t> sums;
  Rig s = make_rig(n, 2, {0, 0, 1, 1, 2, 2, 3, 3}, 3);
  RingOpts opt;
  opt.iters = iters;
  opt.sums = &sums;
  s.machine->launch([opt](Rank& r) { ring_app(r, opt); });
  s.machine->inject_failure(0.0060, 2);   // cluster 1
  s.machine->inject_failure(0.0062, 6);   // cluster 3, overlapping recovery
  mpi::RunResult res = s.machine->run();
  EXPECT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  EXPECT_EQ(sums, expect);
  EXPECT_EQ(s.protocol->rollbacks(), 2u);
}

TEST(Recovery, GlobalCoordinatedRollsBackEveryone) {
  const int n = 4, iters = 10;
  auto expect = failure_free_sums(n, iters);
  std::map<int, uint64_t> sums;
  // Single cluster: classic coordinated checkpointing, no logging.
  Rig s = make_rig(n, 2, {0, 0, 0, 0}, 3);
  RingOpts opt;
  opt.iters = iters;
  opt.sums = &sums;
  s.machine->launch([opt](Rank& r) { ring_app(r, opt); });
  s.machine->inject_failure(0.006, 1);
  EXPECT_TRUE(s.machine->run().completed);
  EXPECT_EQ(sums, expect);
  // Everyone rolled back; nothing was ever logged.
  for (int r = 0; r < n; ++r) {
    EXPECT_TRUE(s.machine->rank(r).restarted());
    EXPECT_EQ(s.machine->rank(r).profile().bytes_logged, 0u);
  }
}

TEST(Recovery, NoMessagesLostNoDuplicatesDelivered) {
  const int n = 8, iters = 12;
  Rig s = make_rig(n, 2, {0, 0, 1, 1, 2, 2, 3, 3}, 3);
  // Count deliveries at rank 3 (survivor neighbor of the failed cluster).
  std::map<int, int> recv_count;
  RingOpts opt;
  opt.iters = iters;
  s.machine->launch([opt, &recv_count](Rank& r) {
    ring_app(r, opt);
    recv_count[r.rank()] = static_cast<int>(r.profile().recvs);
  });
  s.machine->inject_failure(0.006, 2);
  EXPECT_TRUE(s.machine->run().completed);
  // Every rank delivered exactly `iters` ring messages per incarnation run;
  // survivors ran once: exactly iters deliveries.
  EXPECT_EQ(recv_count[0], iters);
  EXPECT_EQ(recv_count[7], iters);
}

}  // namespace
}  // namespace spbc
