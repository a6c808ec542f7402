// Tests: the pluggable redundancy-scheme layer (ckpt/redundancy.hpp).
//
// Failure matrix for XOR group parity (the RS(G-1, 1) preset) — a single
// in-group node loss rebuilds the
// snapshot from surviving fragments without touching the PFS, a double
// in-group loss falls back to the PFS frontier epoch, a source death
// mid-rebuild retries from a surviving fragment — plus group construction
// (spanning failure domains, rotating parity hosts), proactive
// re-protection after a host loss, kPartner-through-the-interface parity
// with the pre-refactor restore-source counts, and the capture-spill
// backstop when bound pressure cannot prune past the retention floor.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "ckpt/redundancy.hpp"
#include "ckpt/staging.hpp"
#include "core/spbc.hpp"
#include "mpi/machine.hpp"

namespace spbc {
namespace {

using mpi::Machine;
using mpi::MachineConfig;
using mpi::Payload;
using mpi::Rank;

ckpt::StorageCostModel slow_pfs_model() {
  ckpt::StorageCostModel m;
  m.pfs_bw = 1.0e5;
  return m;
}

// XOR parity over G-node groups: RAID-5 is Reed-Solomon with one parity
// share, RS(G-1, 1).
ckpt::RedundancyConfig xor_group(int g) {
  return {ckpt::SchemeKind::kReedSolomon, g - 1, 1};
}

core::SpbcConfig xor_config() {
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.storage_model = slow_pfs_model();
  scfg.redundancy = xor_group(4);
  return scfg;
}

// Groups are dealt round-robin over the cluster-sorted node list, so a
// group's nodes land in distinct failure domains whenever the machine has
// enough clusters.
TEST(Redundancy, XorGroupsSpanFailureDomains) {
  MachineConfig cfg;
  cfg.nranks = 32;
  cfg.ranks_per_node = 8;  // 4 nodes
  core::SpbcConfig scfg = xor_config();
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  core::SpbcProtocol* p = proto.get();
  Machine m(cfg, std::move(proto));
  std::vector<int> clusters(32);
  for (int r = 0; r < 32; ++r) clusters[static_cast<size_t>(r)] = r / 8;
  m.set_cluster_of(clusters);  // one node per cluster
  for (int r = 0; r < 32; ++r) {
    std::vector<int> group = p->staging().scheme().group_of(r);
    ASSERT_EQ(group.size(), 3u) << "rank " << r;
    std::set<int> domains{m.cluster_of(r)};
    for (int member : group) {
      EXPECT_EQ(member % 8, r % 8) << "group must keep the node-local slot";
      domains.insert(m.cluster_of(member));
    }
    EXPECT_EQ(domains.size(), 4u)
        << "rank " << r << "'s group does not span all failure domains";
  }
}

// With G=2 on a 4-node machine the deal must still split same-cluster nodes
// into different groups.
TEST(Redundancy, XorSmallGroupsAvoidSameCluster) {
  MachineConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 2;  // 4 nodes
  core::SpbcConfig scfg = xor_config();
  scfg.redundancy = xor_group(2);
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  core::SpbcProtocol* p = proto.get();
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 0, 0, 0, 1, 1, 1, 1});  // clusters = node pairs
  for (int r = 0; r < 8; ++r) {
    std::vector<int> group = p->staging().scheme().group_of(r);
    ASSERT_EQ(group.size(), 1u);
    EXPECT_NE(m.cluster_of(group[0]), m.cluster_of(r))
        << "rank " << r << " grouped inside its own failure domain";
  }
}

// A chain that ends at the redundancy level (no PFS in it at all) places
// the parity once the LOCAL write completes; the host rotates with the
// epoch, and after a home node loss the group alone keeps the epoch
// recoverable — LOCAL-class storage that survives node loss.
TEST(Redundancy, XorChainRotatesHostsAndSurvivesNodeLossWithoutPfs) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 1, 2, 3});
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPartner;  // chain ends at redundancy
  sc.async = true;
  sc.redundancy = xor_group(4);
  ckpt::StagingArea area(sc);
  area.attach(m);
  for (int r = 0; r < 4; ++r) {
    m.engine().at(1e-3, [&, r] { area.write(r, 1, 3000); });
    m.engine().at(0.1, [&, r] { area.write(r, 2, 3000); });
  }
  bool checked = false;
  m.engine().at(0.5, [&] {
    const std::vector<ckpt::Fragment>* f1 = area.fragments(0, 1);
    const std::vector<ckpt::Fragment>* f2 = area.fragments(0, 2);
    ASSERT_NE(f1, nullptr);
    ASSERT_NE(f2, nullptr);
    ASSERT_EQ(f1->size(), 1u);
    ASSERT_EQ(f2->size(), 1u);
    EXPECT_TRUE(f1->front().parity && f1->front().live);
    EXPECT_TRUE(f2->front().live);
    EXPECT_NE(f1->front().host_rank, f2->front().host_rank)
        << "parity host must rotate with the epoch";
    EXPECT_EQ(f1->front().bytes, 1000u);  // ceil(B / k), k = G-1
    // Node loss: every epoch of rank 0 stays recoverable through the group,
    // with no PFS copy anywhere.
    area.invalidate_node(0);
    EXPECT_TRUE(area.recoverable(0, 1));
    EXPECT_TRUE(area.recoverable(0, 2));
    EXPECT_EQ(area.plan_restore(0, 1).source,
              ckpt::RestorePlan::Source::kRebuild);
    EXPECT_EQ(area.pfs_frontier(0), 0u);
    checked = true;
  });
  EXPECT_TRUE(m.run().completed);
  EXPECT_TRUE(checked);
  EXPECT_EQ(area.stats().pfs_flushes, 0u);
}

// Protocol-level single in-group loss: the failed cluster's committed epoch
// is rebuilt over the network from the surviving group members, the restored
// run matches the failure-free result, and the PFS is never read.
TEST(Redundancy, XorSingleLossRebuildsWithoutPfs) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 1;
  core::SpbcConfig scfg = xor_config();
  const int iters = 3;
  auto run = [&](bool inject, std::map<int, uint64_t>* sums,
                 core::SpbcProtocol** proto_out) {
    auto proto = std::make_unique<core::SpbcProtocol>(scfg);
    if (proto_out) *proto_out = proto.get();
    auto m = std::make_unique<Machine>(cfg, std::move(proto));
    m->set_cluster_of({0, 1, 2, 3});  // one node per cluster: G spans all
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
        int to = (r.rank() + 1) % r.nranks();
        int from = (r.rank() + r.nranks() - 1) % r.nranks();
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
        r.compute(5e-3);
        ++st.iter;
        r.maybe_checkpoint();
      }
      if (sums) (*sums)[r.rank()] = st.sum;
    });
    if (inject) m->inject_failure(8e-3, 0);
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
  ASSERT_EQ(m->recoveries().size(), 1u);
  EXPECT_TRUE(m->recoveries().at(0).complete());
  const ckpt::StagingStats& st = p->staging().stats();
  EXPECT_GE(st.rebuild_restores, 1u);  // the lost member came back via XOR
  EXPECT_GT(st.rebuild_bytes_read, 0u);
  EXPECT_EQ(st.restores_by_level[2], 0u) << "rebuild must not touch the PFS";
  EXPECT_EQ(st.epoch_fallbacks, 0u);
  EXPECT_GE(st.parity_fragments, 1u);
}

// Double in-group loss destroys a rebuild source: the not-yet-flushed epoch
// becomes unrecoverable and the restore target falls back to the PFS
// frontier epoch.
TEST(Redundancy, DoubleInGroupLossFallsBackToPfsFrontier) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 1, 2, 3});
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.model = slow_pfs_model();  // 100KB => ~1s per PFS flush
  sc.redundancy = xor_group(4);
  ckpt::StagingArea area(sc);
  area.attach(m);
  // Epoch 1 flushes to the PFS (~1s); epoch 2's flush is still in flight
  // when two group nodes die at t=1.6s.
  for (int r = 0; r < 4; ++r) m.engine().at(1e-3, [&, r] { area.write(r, 1, 100000); });
  for (int r = 0; r < 4; ++r) m.engine().at(1.5, [&, r] { area.write(r, 2, 100000); });
  bool checked = false;
  m.engine().at(1.6, [&] {
    area.invalidate_node(0);
    area.invalidate_node(1);
    EXPECT_EQ(area.pfs_frontier(0), 1u);
    // Epoch 2: LOCAL gone, group cannot rebuild (member 1's data died too),
    // no PFS copy yet -> unrecoverable; recovery must fall back to epoch 1,
    // which the PFS frontier retained.
    EXPECT_FALSE(area.recoverable(0, 2));
    EXPECT_EQ(area.plan_restore(0, 2).source, ckpt::RestorePlan::Source::kNone);
    EXPECT_TRUE(area.recoverable(0, 1));
    EXPECT_EQ(area.plan_restore(0, 1).source, ckpt::RestorePlan::Source::kPfs);
    checked = true;
  });
  EXPECT_TRUE(m.run().completed);
  EXPECT_TRUE(checked);
}

// A rebuild source dies mid-read: the rebuild retries by re-planning from
// what survives — here the epoch's PFS copy — instead of failing the
// restore.
TEST(Redundancy, KillDuringRebuildRetriesFromSurvivingFragment) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 1, 2, 3});
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.model.pfs_bw = 1.0e9;  // flushes finish quickly: PFS copies exist
  sc.redundancy = xor_group(4);
  ckpt::StagingArea area(sc);
  area.attach(m);
  // 100MB snapshots: rebuild reads (~33MB each) take tens of milliseconds,
  // long enough to lose a source node mid-flight.
  for (int r = 0; r < 4; ++r)
    m.engine().at(1e-3, [&, r] { area.write(r, 1, 100000000); });
  bool restored = false, ok_result = false;
  m.engine().at(0.5, [&] {
    area.invalidate_node(0);
    ASSERT_EQ(area.plan_restore(0, 1).source,
              ckpt::RestorePlan::Source::kRebuild)
        << "rebuild must be preferred over the PFS read";
    area.execute_restore({0}, 1, [&](bool ok) {
      restored = true;
      ok_result = ok;
    });
  });
  // One of the rebuild's sources dies while its read is on the wire.
  m.engine().at(0.51, [&] { area.invalidate_node(1); });
  EXPECT_TRUE(m.run().completed);
  ASSERT_TRUE(restored);
  EXPECT_TRUE(ok_result);
  const ckpt::StagingStats& st = area.stats();
  EXPECT_GE(st.restore_retries, 1u);
  EXPECT_EQ(st.rebuild_restores, 0u);  // the retry landed on the PFS instead
  EXPECT_EQ(st.restores_by_level[2], 1u);
}

// A parity host dies after the fragment landed but before the epoch reached
// the PFS: proactive re-protection re-encodes the parity onto a replacement
// node, restoring single-loss coverage.
TEST(Redundancy, ReprotectionMovesParityToReplacementHost) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 1, 2, 3});
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.model = slow_pfs_model();  // flush pending for ~1s
  sc.redundancy = xor_group(4);
  ckpt::StagingArea area(sc);
  area.attach(m);
  for (int r = 0; r < 4; ++r)
    m.engine().at(1e-3, [&, r] { area.write(r, 1, 100000); });
  int first_host = -1;
  m.engine().at(0.1, [&] {
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 1);
    ASSERT_NE(frags, nullptr);
    ASSERT_EQ(frags->size(), 1u);
    ASSERT_TRUE(frags->front().live);
    first_host = frags->front().host_node;
    area.invalidate_node(first_host);
  });
  bool verified = false;
  m.engine().at(0.2, [&] {
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 1);
    ASSERT_NE(frags, nullptr);
    ASSERT_GE(frags->size(), 2u) << "no replacement fragment was placed";
    const ckpt::Fragment& repl = frags->back();
    EXPECT_TRUE(repl.live);
    EXPECT_TRUE(repl.parity);
    EXPECT_NE(repl.host_node, first_host);
    EXPECT_NE(repl.host_node, 0);
    verified = true;
  });
  EXPECT_TRUE(m.run().completed);
  EXPECT_TRUE(verified);
  EXPECT_GE(area.stats().reprotections, 1u);
}

// kPartner through the scheme interface must reproduce the pre-refactor
// restore-source counts exactly: both members of the failed cluster restore
// from their buddy node, nothing from LOCAL, the PFS, or a rebuild.
TEST(Redundancy, PartnerViaInterfaceMatchesPreRefactorCounts) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 1;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.storage_model = slow_pfs_model();
  scfg.redundancy.kind = ckpt::SchemeKind::kPartner;  // explicit, == default
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
      int peer = r.rank() ^ 1;
      mpi::Request rq = r.irecv(peer, 1, w);
      r.isend(peer, 1, Payload::make_synthetic(128, 7), w);
      r.wait(rq);
      r.compute(5e-3);
      ++st.iter;
      r.maybe_checkpoint();
    }
  });
  m.inject_failure(8e-3, 0);
  mpi::RunResult res = m.run();
  ASSERT_TRUE(res.completed) << "deadlocked=" << res.deadlocked;
  const ckpt::StagingStats& st = p->staging().stats();
  // The pre-refactor partner path served exactly these sources for this
  // scenario (see test_staging.PartnerCopyServesRecovery).
  EXPECT_EQ(st.restores_by_level[0], 0u);
  EXPECT_EQ(st.restores_by_level[1], 2u);
  EXPECT_EQ(st.restores_by_level[2], 0u);
  EXPECT_EQ(st.rebuild_restores, 0u);
  EXPECT_EQ(st.parity_fragments, 0u);
  EXPECT_EQ(st.epoch_fallbacks, 0u);
}

// Protocol-level DOUBLE in-group loss under RS(4, 2): two clusters fail
// back-to-back, both committed epochs are rebuilt over the network from the
// surviving group (any-2-loss tolerance), the restored run matches the
// failure-free result, and the PFS is never read.
TEST(Redundancy, RsDoubleLossRebuildsWithoutPfs) {
  MachineConfig cfg;
  cfg.nranks = 6;
  cfg.ranks_per_node = 1;
  core::SpbcConfig scfg = xor_config();
  scfg.redundancy.kind = ckpt::SchemeKind::kReedSolomon;
  scfg.redundancy.rs_k = 4;
  scfg.redundancy.rs_m = 2;
  const int iters = 3;
  auto run = [&](bool inject, std::map<int, uint64_t>* sums,
                 core::SpbcProtocol** proto_out) {
    auto proto = std::make_unique<core::SpbcProtocol>(scfg);
    if (proto_out) *proto_out = proto.get();
    auto m = std::make_unique<Machine>(cfg, std::move(proto));
    m->set_cluster_of({0, 1, 2, 3, 4, 5});  // one node per cluster
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
        int to = (r.rank() + 1) % r.nranks();
        int from = (r.rank() + r.nranks() - 1) % r.nranks();
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
        r.compute(5e-3);
        ++st.iter;
        r.maybe_checkpoint();
      }
      if (sums) (*sums)[r.rank()] = st.sum;
    });
    if (inject) {
      // Two losses in the same RS group (all six nodes form one group),
      // close enough that the second lands while the first recovery is in
      // flight.
      m->inject_failure(8e-3, 0);
      m->inject_failure(8.2e-3, 3);
    }
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
  EXPECT_GE(st.rebuild_restores, 2u) << "both lost members must rebuild";
  EXPECT_GT(st.rebuild_bytes_read, 0u);
  EXPECT_EQ(st.restores_by_level[2], 0u) << "rebuild must not touch the PFS";
  EXPECT_GE(st.parity_fragments, 2u);
}

// A parity host dies; the deferred re-encode places a replacement — and the
// replacement host dies while that placement is on the wire. The in-flight
// fragment must not go live on dead storage; the chain retries onto a third
// host and full single-loss coverage comes back.
TEST(Redundancy, XorReprotectionRacesReplacementHostDeath) {
  MachineConfig cfg;
  cfg.nranks = 5;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 1, 2, 3, 4});
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.model = slow_pfs_model();  // flushes pending throughout (100MB / 1e5)
  sc.redundancy = xor_group(5);
  ckpt::StagingArea area(sc);
  area.attach(m);
  // 100MB snapshots: the replacement placement is on the wire long enough
  // to lose its destination mid-flight.
  for (int r = 0; r < 5; ++r)
    m.engine().at(1e-3, [&, r] { area.write(r, 1, 100000000); });
  int h1 = -1, h2 = -1;
  m.engine().at(0.5, [&] {
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 1);
    ASSERT_NE(frags, nullptr);
    ASSERT_EQ(frags->size(), 1u);
    ASSERT_TRUE(frags->front().live);
    h1 = frags->front().host_node;
    area.invalidate_node(h1);
  });
  m.engine().at(0.503, [&] {
    // The deferred re-encode has started a replacement placement (the
    // ~25MB folded segment is on the wire for tens of ms); its fragment is
    // recorded but must not be live yet.
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 1);
    ASSERT_NE(frags, nullptr);
    ASSERT_GE(frags->size(), 2u) << "re-protection did not start";
    ASSERT_FALSE(frags->back().live) << "fragment live before the copy landed";
    h2 = frags->back().host_node;
    EXPECT_NE(h2, h1);
    area.invalidate_node(h2);  // the re-protection target dies mid-placement
  });
  bool verified = false;
  m.engine().at(2.0, [&] {
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 1);
    ASSERT_NE(frags, nullptr);
    int live = 0, live_host = -1;
    for (const ckpt::Fragment& f : *frags) {
      if (f.live && area.node_in_service(f.host_node)) {
        ++live;
        live_host = f.host_node;
      }
      // A fragment must never read as live on out-of-service storage.
      EXPECT_FALSE(f.live && !area.node_in_service(f.host_node));
    }
    EXPECT_EQ(live, 1) << "parity must land on exactly one surviving host";
    EXPECT_NE(live_host, h1);
    EXPECT_NE(live_host, h2);
    EXPECT_NE(live_host, 0);
    verified = true;
  });
  EXPECT_TRUE(m.run().completed);
  EXPECT_TRUE(verified);
  EXPECT_GE(area.stats().reprotections, 1u);
  EXPECT_GE(area.stats().hop_retries, 1u);
}

// The RS variant of the race, pushed one failure further: after the killed
// re-protection target the share retries onto a fresh host. The third loss
// (the owner) leaves three members unknown under RS(4, 2), one beyond the
// code's distance: the live shares still outnumber the unknowns, but the
// scheme must not claim a rebuild, and the restore reads the PFS.
TEST(Redundancy, RsReprotectionRaceThenTripleLossFallsBackToPfs) {
  MachineConfig cfg;
  cfg.nranks = 6;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 1, 2, 3, 4, 5});
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  // Default PFS share (50 MB/s): the 100MB flush lands at ~2s, after the
  // race below (re-protection runs only while the epoch is short of the
  // PFS) and before the owner dies.
  sc.redundancy.kind = ckpt::SchemeKind::kReedSolomon;
  sc.redundancy.rs_k = 4;
  sc.redundancy.rs_m = 2;
  ckpt::StagingArea area(sc);
  area.attach(m);
  for (int r = 0; r < 6; ++r)
    m.engine().at(1e-3, [&, r] { area.write(r, 1, 100000000); });
  int h1 = -1, h2 = -1;
  m.engine().at(0.6, [&] {
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 1);
    ASSERT_NE(frags, nullptr);
    ASSERT_EQ(frags->size(), 2u) << "RS(4,2) must place two shares";
    ASSERT_TRUE((*frags)[0].live && (*frags)[1].live);
    EXPECT_NE((*frags)[0].host_node, (*frags)[1].host_node);
    EXPECT_FALSE(area.has_pfs(0, 1)) << "flush landed before the race";
    h1 = frags->front().host_node;
    area.invalidate_node(h1);
  });
  m.engine().at(0.603, [&] {
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 1);
    ASSERT_NE(frags, nullptr);
    ASSERT_GE(frags->size(), 3u) << "re-protection did not start";
    const ckpt::Fragment& repl = frags->back();
    ASSERT_FALSE(repl.live);
    EXPECT_EQ(repl.share, frags->front().share)
        << "the replacement must re-place the lost share id";
    h2 = repl.host_node;
    area.invalidate_node(h2);  // the re-protection target dies mid-placement
  });
  m.engine().at(3.0, [&] {
    // The share retried onto a fresh host: both logical shares live again.
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 1);
    ASSERT_NE(frags, nullptr);
    std::set<int> live_shares;
    for (const ckpt::Fragment& f : *frags)
      if (f.live && area.node_in_service(f.host_node)) {
        live_shares.insert(f.share);
        EXPECT_NE(f.host_node, h1);
        EXPECT_NE(f.host_node, h2);
      }
    EXPECT_EQ(live_shares.size(), 2u) << "full RS coverage must come back";
    ASSERT_TRUE(area.has_pfs(0, 1)) << "the flush never landed";
    // Third loss: the owner. Unknowns {0, h1, h2} exceed m = 2.
    area.invalidate_node(0);
    EXPECT_FALSE(area.scheme().recoverable_without_pfs(0, 1, area));
    EXPECT_TRUE(area.recoverable(0, 1));
    EXPECT_EQ(area.plan_restore(0, 1).source, ckpt::RestorePlan::Source::kPfs);
  });
  bool restored = false, ok_result = false;
  m.engine().at(3.1, [&] {
    area.execute_restore({0}, 1, [&](bool ok) {
      restored = true;
      ok_result = ok;
    });
  });
  EXPECT_TRUE(m.run().completed);
  ASSERT_TRUE(restored);
  EXPECT_TRUE(ok_result);
  const ckpt::StagingStats& st = area.stats();
  EXPECT_GE(st.reprotections, 1u);
  EXPECT_GE(st.hop_retries, 1u);
  EXPECT_EQ(st.rebuild_restores, 0u) << "a rebuild beyond distance m";
  EXPECT_EQ(st.restores_by_level[2], 1u);
}

// Re-protection fires while the owner's OTHER share is still on the wire:
// the in-flight share must count as covered (it will land, or the
// generation check re-issues it) — re-placing it would duplicate the share
// id and could co-locate two shares on one host, silently shrinking the
// any-m-loss distance.
TEST(Redundancy, RsReprotectionDoesNotDuplicateInFlightShares) {
  MachineConfig cfg;
  cfg.nranks = 6;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 1, 2, 3, 4, 5});
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.model = slow_pfs_model();
  sc.redundancy.kind = ckpt::SchemeKind::kReedSolomon;
  sc.redundancy.rs_k = 4;
  sc.redundancy.rs_m = 2;
  ckpt::StagingArea area(sc);
  area.attach(m);
  // 100MB snapshots: the two share placements serialize on the owner's NIC
  // and land at different times, opening the one-live-one-in-flight window.
  for (int r = 0; r < 6; ++r)
    m.engine().at(1e-3, [&, r] { area.write(r, 1, 100000000); });
  auto poll = std::make_shared<std::function<void()>>();
  bool killed = false;
  *poll = [&] {
    if (killed) return;
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 1);
    if (frags != nullptr && frags->size() == 2 &&
        (*frags)[0].live != (*frags)[1].live) {
      // Exactly the race: one share landed, the other is on the wire. Kill
      // the landed share's host so re-protection runs mid-flight.
      killed = true;
      area.invalidate_node(
          ((*frags)[0].live ? (*frags)[0] : (*frags)[1]).host_node);
      return;
    }
    if (m.engine().now() < 1.0) m.engine().after(0.002, [&] { (*poll)(); });
  };
  m.engine().at(0.05, [&] { (*poll)(); });
  bool verified = false;
  m.engine().at(2.5, [&] {
    ASSERT_TRUE(killed) << "never caught one share live, one in flight";
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 1);
    ASSERT_NE(frags, nullptr);
    std::map<int, int> live_per_share;
    std::set<int> live_hosts;
    for (const ckpt::Fragment& f : *frags) {
      if (!f.live) continue;
      EXPECT_TRUE(area.node_in_service(f.host_node));
      ++live_per_share[f.share];
      live_hosts.insert(f.host_node);
    }
    EXPECT_EQ(live_per_share.size(), 2u) << "both share ids must be covered";
    for (const auto& [share, n] : live_per_share)
      EXPECT_EQ(n, 1) << "share " << share << " placed twice";
    EXPECT_EQ(live_hosts.size(), 2u) << "two shares co-located on one host";
    verified = true;
  });
  EXPECT_TRUE(m.run().completed);
  EXPECT_TRUE(verified);
}

// The partner variant: the buddy mapping is fixed, so re-protection with a
// dead buddy must be a clean no-op; once the buddy node comes back in
// service and a fresh epoch re-encodes onto it, a second buddy death
// mid-placement must not leave a live fragment on dead storage — and with
// no copy and no PFS level, a later owner loss is correctly unrecoverable.
TEST(Redundancy, PartnerReprotectionRacesSecondBuddyDeath) {
  MachineConfig cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 1;
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  Machine m(cfg, std::move(proto));
  m.set_cluster_of({0, 1, 2, 3});
  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPartner;  // no PFS level in the chain
  sc.async = true;
  sc.redundancy.kind = ckpt::SchemeKind::kPartner;
  ckpt::StagingArea area(sc);
  area.attach(m);
  const int buddy = ckpt::cross_domain_partner(m, 0);
  ASSERT_GE(buddy, 0);
  for (int r = 0; r < 4; ++r)
    m.engine().at(1e-3, [&, r] { area.write(r, 1, 100000000); });
  m.engine().at(0.5, [&] {
    area.invalidate_node(buddy);  // first buddy death, copies landed
  });
  m.engine().at(0.7, [&] {
    // The fixed mapping cannot re-protect onto another node: no live
    // fragment, no reprotection counted, the epoch survives via LOCAL.
    EXPECT_EQ(area.stats().reprotections, 0u);
    EXPECT_EQ(area.levels(0, 1) & ckpt::kAtPartner, 0);
    EXPECT_TRUE(area.recoverable(0, 1));
    // The buddy node returns to service (a respawned resident writes).
    area.write(buddy, 2, 100000000);
  });
  m.engine().at(0.8, [&] {
    area.write(0, 2, 100000000);  // epoch 2 re-encodes onto the reborn buddy
  });
  m.engine().at(0.95, [&] {
    // The copy is on the wire; the buddy dies a second time.
    const std::vector<ckpt::Fragment>* frags = area.fragments(0, 2);
    ASSERT_NE(frags, nullptr);
    ASSERT_EQ(frags->size(), 1u);
    ASSERT_FALSE(frags->front().live) << "copy landed before the kill";
    area.invalidate_node(buddy);
  });
  bool verified = false;
  m.engine().at(2.0, [&] {
    // The in-flight copy must not have gone live on dead storage, and the
    // chain retried (straight to nothing: no PFS level, buddy dead).
    EXPECT_EQ(area.levels(0, 2) & ckpt::kAtPartner, 0);
    EXPECT_GE(area.stats().hop_retries, 1u);
    EXPECT_TRUE(area.recoverable(0, 2));  // via LOCAL
    // Owner loss: with the buddy dead and no PFS, epoch 2 is gone — the
    // scheme must say so, not fabricate a source.
    area.invalidate_node(0);
    EXPECT_FALSE(area.recoverable(0, 2));
    EXPECT_EQ(area.plan_restore(0, 2).source, ckpt::RestorePlan::Source::kNone);
    verified = true;
  });
  EXPECT_TRUE(m.run().completed);
  EXPECT_TRUE(verified);
}

// Capture-bound pressure with a PFS whose frontier never advances: commits
// cannot prune the retained captures, so the backstop spills the oldest ones
// to LOCAL storage and reclamation keeps moving.
TEST(Redundancy, CaptureSpillWhenFloorLagsBehindBound) {
  MachineConfig cfg;
  cfg.nranks = 2;
  cfg.ranks_per_node = 2;
  core::SpbcConfig scfg;
  scfg.checkpoint_every = 0;  // pressure-triggered waves only
  scfg.capture_bytes_bound = 512;
  scfg.storage = ckpt::StorageLevel::kPfs;
  scfg.async_staging = true;
  scfg.storage_model.pfs_bw = 1.0e3;  // frontier stays at 0 all run
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
  EXPECT_GE(p->capture_forced_waves(), 1u);
  // The retention floor was still 0 when the waves committed (the first
  // flush lands at ~0.2s of virtual time, long after the app's commits), so
  // pruning reclaimed nothing — the spill kept capture memory at the bound.
  EXPECT_GT(p->store().captures_spilled(), 0u);
  EXPECT_GT(p->store().capture_spilled_bytes(), 0u);
  EXPECT_LE(p->store().capture_live_bytes(1), scfg.capture_bytes_bound);
}

}  // namespace
}  // namespace spbc
