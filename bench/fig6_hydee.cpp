// Figure 6: "Comparison of the performance of HydEE and SPBC in recovery
// (8 clusters)" on the NAS benchmarks BT, LU, MG, SP.
//
// Paper shape: SPBC recovers up to 2x faster than HydEE; HydEE's centralized
// replay coordination makes it sometimes *slower* than the failure-free
// execution (bars above 1.0), while SPBC always stays below 1.0.

#include "bench_common.hpp"

using namespace spbc;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchOpts o = bench::parse_opts(cli, bench::kEngine);
  cli.reject_unknown();
  bench::print_header("Figure 6: HydEE vs SPBC recovery (NAS, 8 clusters)", o);

  int nodes = o.ranks / o.ppn;
  int k = std::min(8, nodes);

  util::Table table({"App", "MPICH", "HydEE", "SPBC"});
  for (const auto& app : bench::nas_apps()) {
    // Paper methodology (Sections 6.4/6.5): the failed cluster re-executes
    // the whole run while everyone else replays complete logs — under HydEE
    // every replayed message pays the coordinator round-trip.
    harness::ScenarioConfig spbc_cfg =
        bench::make_config(o, app, k, harness::ProtocolKind::kSpbc);
    spbc_cfg.spbc.checkpoint_every = 0;
    harness::ScenarioResult ff = harness::run_failure_free(spbc_cfg);
    if (!ff.run.completed) {
      table.add_row({app, "1.00", "fail", "fail"});
      continue;
    }
    harness::ScenarioResult spbc =
        harness::run_with_failure(spbc_cfg, ff.elapsed, 0.97);

    harness::ScenarioConfig hyd_cfg =
        bench::make_config(o, app, k, harness::ProtocolKind::kHydee);
    hyd_cfg.spbc.checkpoint_every = 0;
    harness::ScenarioResult hyd = harness::run_with_failure(hyd_cfg, ff.elapsed, 0.97);

    auto fmt = [](const harness::ScenarioResult& r) {
      if (!r.run.completed || r.recoveries.empty() || !r.recoveries.front().complete())
        return std::string("fail");
      return util::Table::fmt(r.normalized_rework(), 3);
    };
    table.add_row({app, "1.00", fmt(hyd), fmt(spbc)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(paper: SPBC up to 2x faster than HydEE; HydEE sometimes above\n"
              " 1.0 because its coordinator serializes every replayed message)\n");
  return 0;
}
