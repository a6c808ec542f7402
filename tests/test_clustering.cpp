// Unit tests: communication graph and the clustering tool (partitioner) —
// CSR storage, incremental cut accounting, the heap/delta pipeline against
// pinned seed-algorithm cuts and brute-force optima, and the flat traffic
// matrix that feeds the graph.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "clustering/agglomerate.hpp"
#include "clustering/comm_graph.hpp"
#include "clustering/partitioner.hpp"
#include "clustering/streaming.hpp"
#include "mpi/traffic.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace spbc::clustering {
namespace {

TEST(CommGraph, TrafficAccumulates) {
  CommGraph g(4);
  g.add_traffic(0, 1, 100);
  g.add_traffic(0, 1, 50);
  g.add_traffic(1, 0, 25);
  EXPECT_EQ(g.traffic(0, 1), 150u);
  EXPECT_EQ(g.traffic(1, 0), 25u);
  EXPECT_EQ(g.weight(0, 1), 175u);
  EXPECT_EQ(g.total_bytes(), 175u);
}

TEST(CommGraph, LoggedBytesIsCutVolume) {
  CommGraph g(4);
  g.add_traffic(0, 1, 100);
  g.add_traffic(2, 3, 100);
  g.add_traffic(1, 2, 40);
  std::vector<int> part{0, 0, 1, 1};
  EXPECT_EQ(g.logged_bytes(part), 40u);
  auto per_rank = g.logged_bytes_per_rank(part);
  EXPECT_EQ(per_rank[1], 40u);  // sender logs
  EXPECT_EQ(per_rank[2], 0u);
}

// Ring of 8 nodes (1 rank per node): contiguous blocks are optimal.
TEST(Partitioner, RingGetsContiguousBlocks) {
  sim::Topology topo(8, 1);
  CommGraph g(8);
  for (int i = 0; i < 8; ++i) {
    g.add_traffic(i, (i + 1) % 8, 1000);
    g.add_traffic((i + 1) % 8, i, 1000);
  }
  Partitioner part(g, topo);
  PartitionResult res = part.partition(4);
  EXPECT_EQ(res.clusters, 4);
  // Optimal 4-way cut of a ring: 4 edges cut x 2 directions x 1000 = 8000.
  EXPECT_EQ(res.logged_bytes, 8000u);
}

TEST(Partitioner, NodeColocationRespected) {
  sim::Topology topo(4, 2);  // 8 ranks, 2 per node
  CommGraph g(8);
  for (int i = 0; i < 7; ++i) g.add_traffic(i, i + 1, 100);
  Partitioner part(g, topo);
  PartitionResult res = part.partition(2);
  for (int r = 0; r < 8; r += 2)
    EXPECT_EQ(res.cluster_of[static_cast<size_t>(r)],
              res.cluster_of[static_cast<size_t>(r + 1)])
        << "node pair " << r;
}

TEST(Partitioner, BeatsOrEqualsBlockPartitionOnClusteredTraffic) {
  sim::Topology topo(8, 1);
  CommGraph g(8);
  // Two "communities" interleaved in rank order: {0,2,4,6} and {1,3,5,7}.
  for (int a : {0, 2, 4, 6})
    for (int b : {0, 2, 4, 6})
      if (a < b) g.add_traffic(a, b, 1000);
  for (int a : {1, 3, 5, 7})
    for (int b : {1, 3, 5, 7})
      if (a < b) g.add_traffic(a, b, 1000);
  g.add_traffic(0, 1, 10);  // weak cross links
  g.add_traffic(2, 3, 10);
  Partitioner part(g, topo);
  PartitionResult tool = part.partition(2);
  PartitionResult block = part.block_partition(2);
  EXPECT_LE(tool.logged_bytes, block.logged_bytes);
  EXPECT_EQ(tool.logged_bytes, 20u);  // only the weak links crossed
}

TEST(Partitioner, KEqualsOneIsEverything) {
  sim::Topology topo(4, 1);
  CommGraph g(4);
  g.add_traffic(0, 3, 100);
  Partitioner part(g, topo);
  PartitionResult res = part.partition(1);
  EXPECT_EQ(res.logged_bytes, 0u);
  for (int c : res.cluster_of) EXPECT_EQ(c, 0);
}

TEST(Partitioner, KEqualsNodesIsPerNode) {
  sim::Topology topo(4, 2);
  CommGraph g(8);
  g.add_traffic(0, 2, 100);
  Partitioner part(g, topo);
  PartitionResult res = part.partition(4);
  // 4 clusters over 4 nodes: each node is its own cluster.
  EXPECT_EQ(res.clusters, 4);
  std::set<int> ids(res.cluster_of.begin(), res.cluster_of.end());
  EXPECT_EQ(ids.size(), 4u);
}

TEST(Partitioner, BalancedObjectiveLowersMaxRankLogged) {
  sim::Topology topo(8, 1);
  CommGraph g(8);
  // A "hot" pair (0,1) with massive mutual traffic plus a chain; the
  // min-total partition keeps 0 and 1 together no matter the imbalance
  // elsewhere; the balanced objective may split differently.
  for (int i = 0; i < 8; ++i)
    for (int j = i + 1; j < 8; ++j) g.add_traffic(i, j, 10);
  g.add_traffic(0, 7, 5000);
  g.add_traffic(0, 6, 5000);
  Partitioner part(g, topo);
  PartitionResult total = part.partition(4, Objective::kMinTotalLogged);
  PartitionResult bal = part.partition(4, Objective::kBalancedLogged);
  EXPECT_LE(bal.max_rank_logged, total.max_rank_logged);
}

TEST(Partitioner, DeterministicAcrossCalls) {
  sim::Topology topo(8, 1);
  CommGraph g(8);
  for (int i = 0; i < 8; ++i)
    for (int j = i + 1; j < 8; ++j) g.add_traffic(i, j, static_cast<uint64_t>(i * 13 + j * 7));
  Partitioner part(g, topo);
  EXPECT_EQ(part.partition(3).cluster_of, part.partition(3).cluster_of);
}

// ---------------------------------------------------------------------------
// Flat traffic matrix (the Machine's hot-path accumulator).
// ---------------------------------------------------------------------------

TEST(TrafficMatrix, AccumulatesAndGrows) {
  mpi::TrafficMatrix t(16);
  // More distinct destinations than the initial row capacity forces growth.
  for (int d = 1; d < 16; ++d) t.add(0, d, static_cast<uint64_t>(d));
  for (int d = 1; d < 16; ++d) t.add(0, d, static_cast<uint64_t>(d));
  for (int d = 1; d < 16; ++d)
    EXPECT_EQ(t.bytes(0, d), static_cast<uint64_t>(2 * d)) << "dst " << d;
  EXPECT_EQ(t.bytes(0, 0), 0u);
  EXPECT_EQ(t.bytes(3, 5), 0u);
  EXPECT_EQ(t.total_bytes(), static_cast<uint64_t>(2 * (15 * 16) / 2));
}

TEST(TrafficMatrix, GraphAgreesWithMatrix) {
  mpi::TrafficMatrix t(6);
  util::Pcg32 rng(42, 1);
  for (int i = 0; i < 200; ++i) {
    int s = static_cast<int>(rng.next_bounded(6));
    int d = static_cast<int>(rng.next_bounded(6));
    t.add(s, d, 1 + rng.next_bounded(1000));
  }
  uint64_t visited_total = 0;
  t.for_each([&](int s, int d, uint64_t b) {
    EXPECT_EQ(t.bytes(s, d), b);
    visited_total += b;
  });
  EXPECT_EQ(visited_total, t.total_bytes());
  CommGraph g = CommGraph::from_traffic(6, t);
  for (int a = 0; a < 6; ++a)
    for (int b = 0; b < 6; ++b)
      EXPECT_EQ(g.traffic(a, b), t.bytes(a, b)) << a << "->" << b;
  EXPECT_EQ(g.total_bytes(), t.total_bytes());
}

// ---------------------------------------------------------------------------
// Pipeline parity: brute-force optima, pinned seed-algorithm cuts, delta
// validation, and determinism.
// ---------------------------------------------------------------------------

CommGraph random_graph(int nranks, uint64_t seed, int edges, uint64_t wmax) {
  CommGraph g(nranks);
  util::Pcg32 rng(seed, 11);
  for (int i = 0; i < edges; ++i) {
    int a = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(nranks)));
    int b = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(nranks)));
    if (a != b) g.add_traffic(a, b, 1 + rng.next_bounded(static_cast<uint32_t>(wmax)));
  }
  return g;
}

// Exhaustive optimum over all ways to put `g` node-groups into exactly k
// non-empty clusters within the partitioner's size slack (ceil(g/k) + 1).
struct BruteOpt {
  uint64_t total = 0;
  uint64_t max_rank = 0;
};
BruteOpt brute_force(const CommGraph& graph, const sim::Topology& topo, int k) {
  const int g = topo.nodes();
  const int cap = ((g + k - 1) / k) + 1;
  std::vector<int> assign(static_cast<size_t>(g), 0);
  BruteOpt best;
  uint64_t best_total = ~0ull;
  uint64_t best_max = ~0ull;
  std::vector<int> cluster_of(static_cast<size_t>(graph.nranks()));
  for (;;) {
    // Feasibility: all k clusters used, sizes within cap.
    std::vector<int> count(static_cast<size_t>(k), 0);
    for (int c : assign) ++count[static_cast<size_t>(c)];
    bool ok = true;
    for (int c = 0; c < k; ++c)
      if (count[static_cast<size_t>(c)] == 0 || count[static_cast<size_t>(c)] > cap)
        ok = false;
    if (ok) {
      for (int r = 0; r < graph.nranks(); ++r)
        cluster_of[static_cast<size_t>(r)] = assign[static_cast<size_t>(topo.node_of(r))];
      const uint64_t total = graph.logged_bytes(cluster_of);
      auto per_rank = graph.logged_bytes_per_rank(cluster_of);
      const uint64_t mx =
          per_rank.empty() ? 0 : *std::max_element(per_rank.begin(), per_rank.end());
      best_total = std::min(best_total, total);
      best_max = std::min(best_max, mx);
    }
    // Next assignment (odometer).
    int i = 0;
    while (i < g && ++assign[static_cast<size_t>(i)] == k) {
      assign[static_cast<size_t>(i)] = 0;
      ++i;
    }
    if (i == g) break;
  }
  best.total = best_total;
  best.max_rank = best_max;
  return best;
}

// Planted communities over the node-groups plus light random cross noise:
// the structure a real traced app exhibits and the regime where the greedy
// tool is expected to find the optimum. (On dense *uniform* random graphs
// every greedy partitioner can land several percent off the exhaustive
// optimum; quality there is pinned by PipelineMatchesSeedReference below.)
CommGraph planted_graph(const sim::Topology& topo, int communities,
                        uint64_t seed) {
  const int n = topo.nranks();
  CommGraph g(n);
  util::Pcg32 rng(seed, 17);
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const int ga = topo.node_of(a), gb = topo.node_of(b);
      if (ga == gb) continue;
      if (ga % communities == gb % communities)
        g.add_traffic(a, b, 2000 + rng.next_bounded(200));  // heavy intra
      else if (rng.next_bounded(3) == 0)
        g.add_traffic(a, b, 1 + rng.next_bounded(30));  // light noise
    }
  }
  return g;
}

TEST(Partitioner, WithinTwoPercentOfBruteForceOptimum) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    sim::Topology topo(8, 2);  // 8 groups, 16 ranks
    CommGraph g = planted_graph(topo, 3, seed);
    Partitioner part(g, topo);
    BruteOpt opt = brute_force(g, topo, 3);
    PartitionResult total = part.partition(3, Objective::kMinTotalLogged);
    EXPECT_LE(total.logged_bytes, opt.total + opt.total / 50)
        << "seed " << seed << " (opt " << opt.total << ")";
    PartitionResult bal = part.partition(3, Objective::kBalancedLogged);
    EXPECT_LE(bal.max_rank_logged, opt.max_rank + opt.max_rank / 50)
        << "seed " << seed << " (opt max " << opt.max_rank << ")";
  }
}

TEST(Partitioner, PipelineMatchesSeedReference) {
  // (logged_bytes, max_rank_logged) of the original all-pairs partitioner
  // (dense aggregation, full-rescan agglomeration, full-recompute
  // refinement) on these graphs. The pipeline replicates its greedy order
  // and acceptance rule; it must stay within 2% of the seed's objective.
  struct Pinned {
    uint64_t seed;
    Objective obj;
    uint64_t logged;
    uint64_t max_rank;
  };
  const Pinned pinned[] = {
      {11, Objective::kMinTotalLogged, 282566, 22537},
      {11, Objective::kBalancedLogged, 297854, 22123},
      {12, Objective::kMinTotalLogged, 307343, 20988},
      {12, Objective::kBalancedLogged, 323233, 20016},
      {13, Objective::kMinTotalLogged, 294987, 21423},
      {13, Objective::kBalancedLogged, 300955, 21423},
  };
  for (const Pinned& p : pinned) {
    sim::Topology topo(16, 2);  // 32 ranks over 16 nodes
    CommGraph g = random_graph(32, p.seed, 200, 5000);
    Partitioner part(g, topo);
    PartitionResult fast = part.partition(4, p.obj);
    if (p.obj == Objective::kMinTotalLogged) {
      EXPECT_LE(fast.logged_bytes, p.logged + p.logged / 50) << "seed " << p.seed;
    } else {
      EXPECT_LE(fast.max_rank_logged, p.max_rank + p.max_rank / 50)
          << "seed " << p.seed;
    }
  }
}

TEST(Partitioner, DeltaObjectiveMatchesRecomputeAfterEveryMove) {
  // validate_deltas recomputes logged_bytes()/per-rank from scratch after
  // every applied refinement move and aborts on any divergence from the
  // incremental tables — for both objectives.
  for (uint64_t seed : {21u, 22u}) {
    sim::Topology topo(12, 2);
    CommGraph g = random_graph(24, seed, 150, 3000);
    std::vector<int> node_of(24);
    for (int r = 0; r < 24; ++r) node_of[static_cast<size_t>(r)] = topo.node_of(r);
    const GroupGraph units = GroupGraph::from_ranks(g, node_of, 12);
    for (auto obj : {Objective::kMinTotalLogged, Objective::kBalancedLogged}) {
      RefineParams rp;
      rp.k = 4;
      rp.objective = obj;
      rp.node_cap = 4;  // the partitioner's ceil(12 / 4) + 1
      rp.validate_deltas = true;
      const std::vector<int> start = agglomerate(units, 4);
      std::vector<int> refined = start;
      refine_partition(g, units, node_of, rp, refined);
      EXPECT_NE(refined, start) << "no move was validated";
      std::set<int> ids(refined.begin(), refined.end());
      EXPECT_EQ(ids.size(), 4u);
    }
  }
}

TEST(Partitioner, PipelineIsDeterministic) {
  sim::Topology topo(16, 2);
  CommGraph g = random_graph(32, 33, 250, 4000);
  Partitioner part(g, topo);
  PartitionResult a = part.partition(4);
  PartitionResult b = part.partition(4);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.logged_bytes, b.logged_bytes);
}

TEST(Partitioner, RecoversInterleavedPlantedCommunities) {
  // Interleaved communities over 64 single-rank nodes: the pipeline must
  // find the planted cut exactly.
  const int n = 64;
  sim::Topology topo(n, 1);
  CommGraph g(n);
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b)
      if (a % 4 == b % 4) g.add_traffic(a, b, 1000);
  g.add_traffic(0, 1, 1);  // weak cross links
  g.add_traffic(2, 3, 1);
  Partitioner part(g, topo);
  PartitionResult flat = part.partition(4);
  EXPECT_EQ(flat.logged_bytes, 2u);  // only the two weak links are cut
}

// ---------------------------------------------------------------------------
// Online repartitioner: plan_node_move against an exhaustive recompute.
// ---------------------------------------------------------------------------

// Every legal (unit, target) move in ascending order, scored by
// logged_bytes() on a moved copy of the map. `best` keeps the first
// strictly cut-reducing minimum; the other fields say which of the rules
// under test the case exercised.
struct BruteMove {
  std::optional<NodeMove> best;
  uint64_t best_cut = 0;
  bool tied = false;     // another move reaches best_cut
  bool guarded = false;  // a move emptying its cluster would log less
};
BruteMove brute_node_move(const CommGraph& g, const std::vector<int>& cluster_of,
                          const std::vector<int>& unit_of_rank, int k) {
  std::map<int, std::vector<int>> ranks_of;  // physical unit -> its ranks
  for (size_t r = 0; r < unit_of_rank.size(); ++r)
    ranks_of[unit_of_rank[r]].push_back(static_cast<int>(r));
  std::vector<int> units_in(static_cast<size_t>(k), 0);
  for (const auto& [u, ranks] : ranks_of)
    ++units_in[static_cast<size_t>(cluster_of[static_cast<size_t>(ranks.front())])];
  BruteMove out;
  out.best_cut = g.logged_bytes(cluster_of);
  uint64_t guarded_cut = out.best_cut;
  for (const auto& [u, ranks] : ranks_of) {
    const int from = cluster_of[static_cast<size_t>(ranks.front())];
    for (int to = 0; to < k; ++to) {
      if (to == from) continue;
      std::vector<int> moved = cluster_of;
      for (int r : ranks) moved[static_cast<size_t>(r)] = to;
      const uint64_t cut = g.logged_bytes(moved);
      if (units_in[static_cast<size_t>(from)] == 1) {
        guarded_cut = std::min(guarded_cut, cut);
        continue;
      }
      if (out.best && cut == out.best_cut) out.tied = true;
      if (cut < out.best_cut) {
        out.best_cut = cut;
        out.best = NodeMove{u, ranks, from, to};
        out.tied = false;
      }
    }
  }
  out.guarded = guarded_cut < out.best_cut;
  return out;
}

TEST(Repartitioner, PlanNodeMoveMatchesBruteForce) {
  int moves = 0, ties = 0, guarded = 0, shared = 0, renumbered = 0;
  for (uint64_t trial = 0; trial < 400; ++trial) {
    util::Pcg32 rng(trial, 29);
    // Physical units with gaps between their ids (spare or retired nodes
    // own no ranks); a few extra logical nodes land on an existing unit, as
    // after a shrunk restart.
    const int nunits = 3 + static_cast<int>(rng.next_bounded(6));
    std::vector<int> physical;
    for (int u = 0, id = 0; u < nunits; ++u) {
      id += static_cast<int>(rng.next_bounded(3));
      physical.push_back(id++);
    }
    std::vector<int> node_unit = physical;
    const int extra = static_cast<int>(rng.next_bounded(3));
    for (int j = 0; j < extra; ++j)
      node_unit.push_back(physical[rng.next_bounded(static_cast<uint32_t>(nunits))]);
    const int ppn = 1 + static_cast<int>(rng.next_bounded(3));
    const int nranks = static_cast<int>(node_unit.size()) * ppn;
    std::vector<int> unit_of_rank(static_cast<size_t>(nranks));
    for (int r = 0; r < nranks; ++r)
      unit_of_rank[static_cast<size_t>(r)] = node_unit[static_cast<size_t>(r / ppn)];

    // Every cluster holds a unit; the rest are random, so one-unit
    // clusters are common.
    const int k = 2 + static_cast<int>(rng.next_bounded(
                          static_cast<uint32_t>(std::min(nunits, 5) - 1)));
    std::map<int, int> cluster_of_unit;
    for (int u = 0; u < nunits; ++u)
      cluster_of_unit[physical[static_cast<size_t>(u)]] =
          u < k ? u : static_cast<int>(rng.next_bounded(static_cast<uint32_t>(k)));
    std::vector<int> cluster_of(static_cast<size_t>(nranks));
    for (int r = 0; r < nranks; ++r)
      cluster_of[static_cast<size_t>(r)] =
          cluster_of_unit[unit_of_rank[static_cast<size_t>(r)]];

    // Weights 1..2 on odd trials make equal-gain moves common.
    const uint32_t wmax = trial % 2 ? 2 : 1000;
    CommGraph g(nranks);
    for (int e = 0; e < 2 * nranks; ++e) {
      const int a = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(nranks)));
      const int b = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(nranks)));
      if (a != b) g.add_traffic(a, b, 1 + rng.next_bounded(wmax));
    }

    const BruteMove want = brute_node_move(g, cluster_of, unit_of_rank, k);
    const std::optional<NodeMove> got =
        plan_node_move(g, cluster_of, unit_of_rank, k);
    ASSERT_EQ(got.has_value(), want.best.has_value()) << "trial " << trial;
    ties += want.tied;
    guarded += want.guarded;
    if (!got) continue;
    ++moves;
    EXPECT_EQ(got->unit, want.best->unit) << "trial " << trial;
    EXPECT_EQ(got->ranks, want.best->ranks) << "trial " << trial;
    EXPECT_EQ(got->from, want.best->from) << "trial " << trial;
    EXPECT_EQ(got->to, want.best->to) << "trial " << trial;
    shared += static_cast<int>(got->ranks.size()) > ppn;
    renumbered += got->unit != static_cast<int>(
        std::find(physical.begin(), physical.end(), got->unit) - physical.begin());
  }
  // The cases the rules are about all occurred.
  EXPECT_GT(moves, 0);
  EXPECT_GT(ties, 0);
  EXPECT_GT(guarded, 0);
  EXPECT_GT(shared, 0);
  EXPECT_GT(renumbered, 0);
}

}  // namespace
}  // namespace spbc::clustering
