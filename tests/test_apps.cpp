// Integration tests: every workload runs failure-free at small scale in
// validate mode, produces deterministic checksums, and (parameterized sweep)
// survives an injected failure with bit-identical results under SPBC.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "apps/app.hpp"
#include "apps/assumed_partition.hpp"
#include "apps/decomp.hpp"
#include "harness/scenario.hpp"

namespace spbc {
namespace {

harness::ScenarioConfig base_config(const std::string& app, int nranks) {
  harness::ScenarioConfig cfg;
  cfg.app = app;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 2;
  cfg.nclusters = 4;
  cfg.app_cfg.iters = 6;
  cfg.app_cfg.validate = true;
  cfg.app_cfg.msg_scale = 0.02;      // keep test payloads small
  cfg.app_cfg.compute_scale = 0.02;  // keep virtual runs short
  cfg.spbc.checkpoint_every = 2;
  cfg.machine.abort_on_deadlock = false;
  cfg.use_clustering_tool = false;  // block partition: fast and deterministic
  return cfg;
}

class AppRuns : public ::testing::TestWithParam<std::string> {};

TEST_P(AppRuns, FailureFreeCompletesAndIsDeterministic) {
  harness::ScenarioConfig cfg = base_config(GetParam(), 16);
  cfg.protocol = harness::ProtocolKind::kNative;
  harness::ScenarioResult a = harness::run_failure_free(cfg);
  ASSERT_TRUE(a.run.completed) << "deadlocked=" << a.run.deadlocked;
  EXPECT_EQ(a.checksums.size(), 16u);
  harness::ScenarioResult b = harness::run_failure_free(cfg);
  EXPECT_EQ(a.checksums, b.checksums);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
}

TEST_P(AppRuns, SpbcFailureFreeMatchesNative) {
  harness::ScenarioConfig cfg = base_config(GetParam(), 16);
  cfg.protocol = harness::ProtocolKind::kNative;
  harness::ScenarioResult native = harness::run_failure_free(cfg);
  ASSERT_TRUE(native.run.completed);
  cfg.protocol = harness::ProtocolKind::kSpbc;
  harness::ScenarioResult spbc = harness::run_failure_free(cfg);
  ASSERT_TRUE(spbc.run.completed);
  EXPECT_EQ(native.checksums, spbc.checksums);
  // SPBC may only be (slightly) slower in failure-free execution.
  EXPECT_GE(spbc.elapsed, native.elapsed);
  EXPECT_LT(spbc.elapsed, native.elapsed * 1.10);
}

TEST_P(AppRuns, RecoveryReproducesFailureFreeResults) {
  harness::ScenarioConfig cfg = base_config(GetParam(), 16);
  cfg.protocol = harness::ProtocolKind::kSpbc;
  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  harness::ScenarioResult rec = harness::run_with_failure(cfg, ff.elapsed, 0.55);
  ASSERT_TRUE(rec.run.completed)
      << GetParam() << ": deadlocked=" << rec.run.deadlocked;
  EXPECT_EQ(rec.checksums, ff.checksums) << GetParam();
  ASSERT_FALSE(rec.recoveries.empty());
  EXPECT_TRUE(rec.recoveries.front().complete());
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppRuns,
                         ::testing::Values("AMG", "CM1", "GTC", "MILC", "MiniFE",
                                           "MiniGhost", "BT", "LU", "MG", "SP"));

TEST(AppRegistry, AllAppsRegistered) {
  // 10 native ports + the two facade-driven ports (MiniFE-facade, BT-facade).
  EXPECT_EQ(apps::registry().size(), 12u);
  EXPECT_TRUE(apps::find_app("MiniFE-facade").uses_any_source);
  EXPECT_FALSE(apps::find_app("BT-facade").uses_any_source);
  EXPECT_TRUE(apps::find_app("AMG").uses_any_source);
  EXPECT_TRUE(apps::find_app("GTC").uses_any_source);
  EXPECT_TRUE(apps::find_app("MILC").uses_any_source);
  EXPECT_TRUE(apps::find_app("MiniFE").uses_any_source);
  EXPECT_FALSE(apps::find_app("CM1").uses_any_source);
  EXPECT_FALSE(apps::find_app("MiniGhost").uses_any_source);
  EXPECT_FALSE(apps::find_app("LU").uses_any_source);
}

TEST(Decomp, DimsCreateBalanced) {
  EXPECT_EQ(apps::dims_create(512, 3), (std::vector<int>{8, 8, 8}));
  EXPECT_EQ(apps::dims_create(512, 2), (std::vector<int>{32, 16}));
  EXPECT_EQ(apps::dims_create(12, 2), (std::vector<int>{4, 3}));
  EXPECT_EQ(apps::dims_create(7, 2), (std::vector<int>{7, 1}));
}

TEST(Decomp, GridNeighbors) {
  apps::Grid2D g(6, {3, 2}, /*periodic=*/false);
  EXPECT_EQ(g.rank_of({0, 0}), 0);
  EXPECT_EQ(g.rank_of({2, 1}), 5);
  EXPECT_EQ(g.neighbor(0, 0, +1), 2);   // next row
  EXPECT_EQ(g.neighbor(0, 0, -1), -1);  // bounded edge
  apps::Grid2D p(6, {3, 2}, /*periodic=*/true);
  EXPECT_EQ(p.neighbor(0, 0, -1), 4);   // wraps
}

// ---- assumed-partition contact tables --------------------------------------
//
// The tables must hold exactly the contact lists the apps' per-rank contact
// functions produced before the tables existed (copied here as the
// reference), and each in-degree must equal a brute-force count over them.

std::vector<int> reference_contacts(apps::ContactSet set, int n, int r,
                                    int level) {
  const apps::Grid3D grid = apps::Grid3D::balanced(n, /*periodic=*/false);
  std::vector<int> c = grid.face_neighbors(r);
  const auto ur = static_cast<uint64_t>(r);
  const auto un = static_cast<uint64_t>(n);
  if (set == apps::ContactSet::kAmgLevel) {
    for (int k = 0; k < 2 * level; ++k) {
      int t = static_cast<int>(
          apps::synthetic_hash(ur, static_cast<uint64_t>(level),
                               static_cast<uint64_t>(k), 0xa3) % un);
      if (t != r) c.push_back(t);
    }
    return c;
  }
  const uint64_t salt =
      set == apps::ContactSet::kMinifeSetup ? 0xfe : 0xfacade;
  for (uint64_t k = 0; k < 2; ++k) {
    int extra = static_cast<int>(apps::synthetic_hash(ur, k, salt, 0) % un);
    if (extra != r) c.push_back(extra);
  }
  return c;
}

TEST(ContactTable, MatchesPerRankFunctionsAndBruteForceInDegree) {
  struct Instance {
    apps::ContactSet set;
    int level;
  };
  const std::vector<Instance> instances = {
      {apps::ContactSet::kAmgLevel, 0},    {apps::ContactSet::kAmgLevel, 1},
      {apps::ContactSet::kAmgLevel, 2},    {apps::ContactSet::kAmgLevel, 3},
      {apps::ContactSet::kMinifeSetup, 0}, {apps::ContactSet::kFacadeSetup, 0}};
  for (int n : {8, 27, 128}) {
    for (const Instance& in : instances) {
      const apps::ContactTable& t = apps::contact_table(in.set, n, in.level);
      ASSERT_EQ(t.contacts.size(), static_cast<size_t>(n));
      ASSERT_EQ(t.expected.size(), static_cast<size_t>(n));
      for (int me = 0; me < n; ++me) {
        EXPECT_EQ(t.contacts[me], reference_contacts(in.set, n, me, in.level))
            << "n=" << n << " level=" << in.level << " rank=" << me;
        int in_degree = 0;
        for (int r = 0; r < n; ++r) {
          if (r == me) continue;
          for (int c : reference_contacts(in.set, n, r, in.level))
            if (c == me) ++in_degree;
        }
        EXPECT_EQ(t.expected[me], in_degree)
            << "n=" << n << " level=" << in.level << " rank=" << me;
      }
      // One table per instance: a second lookup returns the same object.
      EXPECT_EQ(&apps::contact_table(in.set, n, in.level), &t);
    }
  }
}

}  // namespace
}  // namespace spbc
