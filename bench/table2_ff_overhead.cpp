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
  bench::BenchOpts o = bench::parse_opts(cli, bench::kEngine);
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
  return 0;
}
