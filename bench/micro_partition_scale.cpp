// Partitioner scaling study: wall-time and cut quality of the clustering
// pipeline at 256 / 1024 / 4096 ranks.
//
// The CSR + lazy-heap + delta-refinement pipeline (DESIGN.md #10) is
// near-linear in the traced edge count; this bench times it on synthetic
// halo/community graphs plus a traced paper app and reports its cut against
// the block-partition baseline. "move ms" times one call of the online
// repartitioner (clustering::plan_node_move, DESIGN.md #14) on the
// pipeline's map. Exits non-zero if any pipeline cut regresses
// more than 5% against block (the quality gate).
//
// Flags (beyond the common ones):
//   --ranks=N          run only the scale N (default: 256, 1024, 4096)
//   --budget-ms=B      exit non-zero if any pipeline partition exceeds B ms
//   --clusters=K       cluster count (default 8)
//   --app-ranks=N      largest scale to trace the paper app at (default 256)

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "clustering/comm_graph.hpp"
#include "clustering/partitioner.hpp"
#include "clustering/streaming.hpp"
#include "util/rng.hpp"

using namespace spbc;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// 3D halo exchange pattern (MiniGhost-like): heavy faces to the six grid
// neighbors plus a light deterministic long-range sprinkle (collectives,
// global reductions).
clustering::CommGraph halo3d_graph(int nranks, uint64_t seed) {
  int nx = 1;
  while (nx * nx * nx < nranks) ++nx;
  clustering::CommGraph g(nranks);
  util::Pcg32 rng(seed, 0x9a10);
  for (int r = 0; r < nranks; ++r) {
    const int x = r % nx, y = (r / nx) % nx, z = r / (nx * nx);
    auto at = [&](int xx, int yy, int zz) {
      return ((zz + nx) % nx) * nx * nx + ((yy + nx) % nx) * nx + ((xx + nx) % nx);
    };
    const int faces[6] = {at(x + 1, y, z), at(x - 1, y, z), at(x, y + 1, z),
                          at(x, y - 1, z), at(x, y, z + 1), at(x, y, z - 1)};
    for (int f : faces) {
      if (f == r || f >= nranks) continue;
      g.add_traffic(r, f, 64 * 1024 + (rng.next_u32() & 0xfff));
    }
    // Long-range: 2 light edges per rank.
    for (int j = 0; j < 2; ++j) {
      int peer = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(nranks)));
      if (peer != r) g.add_traffic(r, peer, 1024 + (rng.next_u32() & 0xff));
    }
  }
  return g;
}

// Planted communities interleaved in rank order: heavy intra-community
// traffic, light cross links. The clustering tool should recover them.
clustering::CommGraph community_graph(int nranks, int communities, uint64_t seed) {
  clustering::CommGraph g(nranks);
  util::Pcg32 rng(seed, 7);
  for (int r = 0; r < nranks; ++r) {
    const int c = r % communities;
    for (int j = 0; j < 12; ++j) {
      // Peer inside the community (same residue class).
      int idx = static_cast<int>(
          rng.next_bounded(static_cast<uint32_t>(nranks / communities)));
      int peer = idx * communities + c;
      if (peer != r && peer < nranks)
        g.add_traffic(r, peer, 32 * 1024 + (rng.next_u32() & 0xfff));
    }
    for (int j = 0; j < 2; ++j) {
      int peer = static_cast<int>(rng.next_bounded(static_cast<uint32_t>(nranks)));
      if (peer != r) g.add_traffic(r, peer, 512 + (rng.next_u32() & 0x7f));
    }
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchOpts o = bench::parse_opts(cli, 0);
  const int k_req = cli.get_int32("clusters", 8);
  const int app_max_ranks = cli.get_int32("app-ranks", 256);
  const double budget_ms = cli.get_double("budget-ms", 0.0);
  cli.reject_unknown();

  std::vector<int> scales = {256, 1024, 4096};
  if (cli.has("ranks")) scales = {o.ranks};

  std::printf("== Partitioner scaling: CSR/heap/delta pipeline vs block ==\n");
  std::printf("ppn=%d clusters=%d\n\n", o.ppn, k_req);

  util::Table table({"Graph", "Ranks", "Edges", "flat ms", "move ms", "cut flat",
                     "cut block"});
  bool ok = true;

  for (int nranks : scales) {
    struct Input {
      std::string name;
      clustering::CommGraph graph;
    };
    std::vector<Input> inputs;
    inputs.push_back({"halo3d", halo3d_graph(nranks, o.seed)});
    inputs.push_back({"community", community_graph(nranks, 8, o.seed)});
    if (nranks <= app_max_ranks) {
      // Trace a real paper app at this scale (Section 6.1 methodology).
      harness::ScenarioConfig cfg;
      cfg.app = "MiniGhost";
      cfg.nranks = nranks;
      cfg.ranks_per_node = o.ppn;
      cfg.machine.seed = o.seed;
      cfg.trace_iters = 3;
      inputs.push_back({"MiniGhost", harness::trace_comm_graph(cfg)});
    }

    for (const Input& in : inputs) {
      sim::Topology topo = sim::Topology::for_ranks(nranks, o.ppn);
      const int k = std::min(k_req, topo.nodes());
      clustering::Partitioner part(in.graph, topo);

      auto t0 = std::chrono::steady_clock::now();
      clustering::PartitionResult flat = part.partition(k);
      const double flat_ms = ms_since(t0);

      std::vector<int> node_of(static_cast<size_t>(nranks));
      for (int r = 0; r < nranks; ++r)
        node_of[static_cast<size_t>(r)] = topo.node_of(r);
      t0 = std::chrono::steady_clock::now();
      clustering::plan_node_move(in.graph, flat.cluster_of, node_of, k);
      const double move_ms = ms_since(t0);

      clustering::PartitionResult block = part.block_partition(k);

      table.add_row(
          {in.name, std::to_string(nranks), std::to_string(in.graph.nedges()),
           util::Table::fmt(flat_ms, 2), util::Table::fmt(move_ms, 2),
           std::to_string(flat.logged_bytes),
           std::to_string(block.logged_bytes)});

      if (budget_ms > 0 && flat_ms > budget_ms) {
        std::printf("FAIL: %s at %d ranks took %.1f ms (budget %.1f ms)\n",
                    in.name.c_str(), nranks, flat_ms, budget_ms);
        ok = false;
      }
      // Quality gate: the pipeline must not regress >5% vs the block baseline.
      if (flat.logged_bytes > block.logged_bytes + block.logged_bytes / 20) {
        std::printf("FAIL: flat cut %llu regresses >5%% vs block %llu (%s, %d ranks)\n",
                    static_cast<unsigned long long>(flat.logged_bytes),
                    static_cast<unsigned long long>(block.logged_bytes),
                    in.name.c_str(), nranks);
        ok = false;
      }
    }
  }

  std::printf("%s\n", table.render().c_str());
  return ok ? 0 : 1;
}
