// Table 2: "failure-free overhead of SPBC in percent (16 clusters)" — the
// cost of sender-based payload logging relative to the native library, for
// the configuration that logs the most (16 clusters).
//
// Paper values: AMG 0.26%, CM1 0.63%, GTC 1.14%, MILC 0.07%, MiniFE 0.08%,
// MiniGhost 0.36% — i.e. at most ~1%.

#include "bench_common.hpp"

using namespace spbc;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchOpts o = bench::parse_opts(cli);
  cli.reject_unknown();
  bench::print_header("Table 2: failure-free overhead of SPBC (16 clusters)", o);

  int nodes = o.ranks / o.ppn;
  int k = std::min(16, nodes);

  util::Table table({"App", "native (s)", "SPBC (s)", "overhead %"});
  for (const auto& app : bench::paper_apps()) {
    harness::ScenarioConfig native_cfg =
        bench::make_config(o, app, k, harness::ProtocolKind::kNative);
    harness::ScenarioResult native = harness::run_failure_free(native_cfg);

    harness::ScenarioConfig spbc_cfg =
        bench::make_config(o, app, k, harness::ProtocolKind::kSpbc);
    spbc_cfg.spbc.checkpoint_every = 0;  // the paper excludes checkpointing
    harness::ScenarioResult spbc = harness::run_failure_free(spbc_cfg);

    if (!native.run.completed || !spbc.run.completed) {
      table.add_row({app, "fail", "fail", "-"});
      continue;
    }
    double overhead = (spbc.elapsed - native.elapsed) / native.elapsed * 100.0;
    table.add_row({app, util::Table::fmt(native.elapsed, 4),
                   util::Table::fmt(spbc.elapsed, 4),
                   util::Table::fmt(overhead, 3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(paper: 0.07%% .. 1.14%% — logging payloads in sender memory is\n"
              " nearly free compared to the application's own work)\n\n");

  // Companion: the checkpoint *write path* the paper excludes, at the bench's
  // checkpoint interval. Async staging (ckpt/staging.hpp) charges the member
  // only the node-local write and drains LOCAL -> PARTNER -> PFS in the
  // background, so its overhead approaches the LOCAL write time while a
  // synchronous PFS write stalls the member for the full storage latency.
  const std::string app = "MiniGhost";
  harness::ScenarioConfig free_cfg =
      bench::make_config(o, app, k, harness::ProtocolKind::kSpbc);
  harness::ScenarioResult free_run = harness::run_failure_free(free_cfg);
  util::Table ckpt_table({"Write mode", "elapsed (s)", "overhead %", "ckpts"});
  if (free_run.run.completed) {
    struct Mode {
      const char* name;
      ckpt::StorageLevel level;
      bool async;
    };
    for (const Mode& mode :
         {Mode{"sync-LOCAL", ckpt::StorageLevel::kLocal, false},
          Mode{"sync-PFS", ckpt::StorageLevel::kPfs, false},
          Mode{"async L/P/F", ckpt::StorageLevel::kPfs, true}}) {
      harness::ScenarioConfig cfg = free_cfg;
      cfg.spbc.storage = mode.level;
      cfg.spbc.async_staging = mode.async;
      harness::ScenarioResult res = harness::run_failure_free(cfg);
      if (!res.run.completed) {
        ckpt_table.add_row({mode.name, "fail", "-", "-"});
        continue;
      }
      double ovh = (res.elapsed - free_run.elapsed) / free_run.elapsed * 100.0;
      ckpt_table.add_row({mode.name, util::Table::fmt(res.elapsed, 4),
                          util::Table::fmt(ovh, 3),
                          std::to_string(res.checkpoints)});
    }
    std::printf("Checkpoint write-path overhead (%s, ckpt_every=%d, vs free I/O):\n%s\n",
                app.c_str(), o.ckpt_every, ckpt_table.render().c_str());
  }
  return 0;
}
