// Microbenchmark: sharded event-engine throughput and memory at ablation
// scale (16k - 131k ranks), engine layer only — no MPI machinery, no
// protocol. Gates the two resources that used to make 100k-rank ablation
// rows CI-infeasible: events/sec (per-shard queues + pooled fiber stacks +
// the threaded conservative-lookahead executor) and peak RSS (stacks are
// recycled; the workload keeps every rank's fiber alive, so resident memory
// is dominated by touched stack pages).
//
// Workload: R rank fibers in C clusters (block map), each iterating
// wait(jittered dt) -> deliver a wake token to a cross-cluster partner
// (rides at_on with the lookahead, exactly like a cross-cluster send) ->
// park until its own token arrives. Every rank folds its wake times into a
// per-rank hash; the XOR over ranks is an execution-order-independent
// trajectory fingerprint, so identical hashes across shard/thread
// configurations certify the determinism contract (the bench self-checks
// this at a small size before the timed rows).
//
// Flags:
//   --ranks=N            single row at N ranks (default: 16k/65k/131k sweep)
//   --shards=N --threads=N   engine plan for the timed rows (0 shards = one
//                            exec shard per cluster)
//   --clusters=N         key shards (default 64)
//   --iters=N            tokens per rank (default 4)
//   --min-events-per-sec=X   gate: fail when a timed row runs slower
//   --max-rss-mb=X           gate: fail when VmHWM exceeds X
//   --skip-selfcheck     skip the cross-config determinism self-check

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace spbc;

namespace {

uint64_t mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t time_bits(sim::Time t) {
  uint64_t b = 0;
  static_assert(sizeof(t) == sizeof(b));
  std::memcpy(&b, &t, sizeof(b));
  return b;
}

struct RunOut {
  uint64_t events = 0;       // shard events executed
  uint64_t hash = 0;         // order-independent trajectory fingerprint
  double wall_sec = 0;
  size_t peak_live_stacks = 0;
  size_t stacks_allocated = 0;
  uint64_t windows = 0;
};

/// One engine run of the token ping workload. Deterministic for any
/// (exec shards, threads) given the same (ranks, clusters, iters).
RunOut run_workload(int ranks, int clusters, int iters, int exec_shards,
                    int threads) {
  sim::Engine eng(/*default_stack_size=*/64 * 1024);
  eng.set_shard_plan(clusters, exec_shards);
  const sim::Time lookahead = sim::usec(10.0);
  eng.set_lookahead(lookahead);
  if (threads > 1) eng.set_threads(threads);

  auto cluster_of = [ranks, clusters](int r) {
    return static_cast<int>(static_cast<int64_t>(r) * clusters / ranks);
  };

  std::vector<sim::Engine::TaskId> ids(static_cast<size_t>(ranks),
                                       sim::Engine::kInvalidTask);
  std::vector<int> tokens(static_cast<size_t>(ranks), 0);
  std::vector<uint64_t> hashes(static_cast<size_t>(ranks), 0);

  for (int r = 0; r < ranks; ++r) {
    // The partner sits half the machine away: cross-cluster for everyone
    // (clusters are contiguous blocks), so every token rides the
    // cross-shard path with the lookahead.
    const int peer = (r + ranks / 2) % ranks;
    const int my_cluster = cluster_of(r);
    const int peer_cluster = cluster_of(peer);
    ids[static_cast<size_t>(r)] = eng.spawn_on(
        my_cluster, [&eng, &ids, &tokens, &hashes, r, peer, my_cluster,
                     peer_cluster, iters, lookahead] {
          uint64_t h = mix64(static_cast<uint64_t>(r) + 1);
          for (int i = 0; i < iters; ++i) {
            // Jittered compute block, deterministic per (rank, iteration).
            const double jit = static_cast<double>(
                                   mix64(h ^ static_cast<uint64_t>(i)) & 0xff) /
                               256.0;
            eng.wait(sim::usec(20.0) * (1.0 + 0.25 * jit));
            // Deliver a wake token to the partner on its own shard.
            auto deliver = [&eng, &ids, &tokens, peer] {
              ++tokens[static_cast<size_t>(peer)];
              eng.unpark(ids[static_cast<size_t>(peer)]);
            };
            if (peer_cluster == my_cluster)
              eng.after(0.0, deliver);
            else
              eng.after_on(peer_cluster, lookahead, deliver);
            // Consume one token of our own (parking until it lands).
            while (tokens[static_cast<size_t>(r)] == 0) eng.park();
            --tokens[static_cast<size_t>(r)];
            h = mix64(h ^ time_bits(eng.now()));
          }
          hashes[static_cast<size_t>(r)] = h;
        });
  }

  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const auto t1 = std::chrono::steady_clock::now();

  RunOut out;
  const sim::Engine::Stats st = eng.stats();
  out.events = st.events + st.serial_events;
  out.windows = st.windows;
  out.peak_live_stacks = st.peak_live_stacks;
  out.stacks_allocated = st.stacks_allocated;
  out.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  for (uint64_t h : hashes) out.hash ^= h;
  return out;
}

uint64_t vm_hwm_kb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%" SCNu64, &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int clusters = cli.get_int32("clusters", 64);
  const int iters = cli.get_int32("iters", 4);
  const int shards = cli.get_int32("shards", 0);
  const int threads = cli.get_int32("threads", 1);
  const double min_eps = cli.get_double("min-events-per-sec", 0.0);
  const double max_rss_mb = cli.get_double("max-rss-mb", 0.0);

  std::vector<int> rank_rows = {16384, 65536, 131072};
  if (cli.has("ranks"))
    rank_rows = {cli.get_int32("ranks", 16384)};
  const bool skip_selfcheck = cli.get_flag("skip-selfcheck");
  cli.reject_unknown();

  std::printf("== micro: sharded engine scale ==\n");
  std::printf("clusters=%d iters=%d shards=%d threads=%d\n\n", clusters, iters,
              shards, threads);

  if (!skip_selfcheck) {
    // Determinism self-check at a small size: the trajectory fingerprint
    // must not depend on the execution configuration.
    const int cr = 2048, cc = 16, ci = 3;
    const uint64_t ref = run_workload(cr, cc, ci, /*exec=*/1, /*thr=*/1).hash;
    const std::vector<std::pair<int, int>> configs = {{4, 1}, {0, 1}, {0, 4}};
    for (auto [ex, th] : configs) {
      const uint64_t got = run_workload(cr, cc, ci, ex, th).hash;
      if (got != ref) {
        std::printf("DETERMINISM MISMATCH: exec=%d threads=%d hash %016" PRIx64
                    " != ref %016" PRIx64 "\n",
                    ex, th, got, ref);
        return 1;
      }
    }
    std::printf("determinism self-check: ok (exec shards 1/4/%d, threads 1/4)\n\n",
                cc);
  }

  // Events/s is the gated rate, but an engine change that needs fewer events
  // per token lowers it while the workload finishes sooner; rank*iters/s
  // (tokens consumed per wall second) counts the work itself.
  util::Table table({"Ranks", "Events", "Wall (s)", "Events/s",
                     "rank*iters/s", "Windows", "Peak stacks", "Stacks alloc",
                     "VmHWM (MB)"});
  bool ok = true;
  for (int ranks : rank_rows) {
    RunOut out = run_workload(ranks, clusters, iters, shards, threads);
    const double eps =
        out.wall_sec > 0 ? static_cast<double>(out.events) / out.wall_sec : 0;
    const double work_per_sec =
        out.wall_sec > 0
            ? static_cast<double>(ranks) * iters / out.wall_sec
            : 0;
    const double rss_mb = static_cast<double>(vm_hwm_kb()) / 1024.0;
    table.add_row({std::to_string(ranks), std::to_string(out.events),
                   util::Table::fmt(out.wall_sec, 3), util::Table::fmt(eps, 0),
                   util::Table::fmt(work_per_sec, 0),
                   std::to_string(out.windows),
                   std::to_string(out.peak_live_stacks),
                   std::to_string(out.stacks_allocated),
                   util::Table::fmt(rss_mb, 1)});
    if (min_eps > 0 && eps < min_eps) {
      std::printf("GATE FAIL: %d ranks ran at %.0f events/s < floor %.0f\n",
                  ranks, eps, min_eps);
      ok = false;
    }
    if (max_rss_mb > 0 && rss_mb > max_rss_mb) {
      std::printf("GATE FAIL: VmHWM %.1f MB > cap %.1f MB\n", rss_mb,
                  max_rss_mb);
      ok = false;
    }
  }
  std::printf("%s\n", table.render().c_str());
  return ok ? 0 : 1;
}
