// Ablation: checkpoint data reduction (DESIGN.md §15) — block deltas (the
// state image diffed by block version, the rest of the capture by content
// hash) and stage-boundary LZ/RLE compression, stacked, at equal redundancy
// scheme and checkpoint interval.
//
// Every run carries the synthetic evolving state model (a per-rank buffer
// whose blocks mutate deterministically each epoch), so the reduction layer
// sees realistic churn: deltas capture the mutated blocks, compression eats
// the low-entropy content. The table reports the store-level reduction (raw
// vs stored bytes) and the bytes each staging level actually shipped —
// reduction at LOCAL compounds through PARTNER copies, parity shares and
// the PFS flush. Each variant then takes a mid-run failure in validate mode:
// the recovered run must land on exactly the failure-free checksums (a
// restore that decodes the chain wrong is a silent-corruption bug, not a
// perf trade-off).
//
// CI gates (exit 1 on violation):
//   * delta+compress cuts PARTNER+PFS bytes >= 2x vs raw, same scheme;
//   * delta alone stores >= 2x fewer bytes than the raw captures: the
//     synthetic state leads each capture, so its unchanged blocks must diff
//     out even with the sender log growing behind it;
//   * every variant's failure run completes with checksums identical to its
//     failure-free run (zero false restore successes);
//   * the delta+compress run is bit-identical across engine shard layouts
//     (encoded sizes feed the control plane, so layout-dependence would fan
//     out into divergent schedules).

#include <string>

#include "bench_common.hpp"

using namespace spbc;

namespace {

std::string kb(uint64_t bytes) { return util::Table::fmt(bytes / 1.0e3, 2); }

struct VariantOutcome {
  bool ok = false;          // both runs completed, checksums identical
  uint64_t raw = 0;         // logical capture bytes (store-level)
  uint64_t stored = 0;      // post-reduction stored bytes
  uint64_t deltas = 0;      // non-full captures
  uint64_t wire_partner = 0;  // PARTNER traffic: copies + parity
  uint64_t wire_pfs = 0;
  double rework = 0;  // normalized rework of the first recovery
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::BenchOpts o = bench::parse_opts(
      cli, bench::kScheme | bench::kRedundancy | bench::kReduction |
               bench::kEngine);
  cli.reject_unknown();
  bench::print_header("Ablation: checkpoint data reduction", o);

  const int nodes = o.ranks / o.ppn;
  const int k = std::min(8, nodes);
  const uint32_t block =
      o.delta_blocks > 0 ? static_cast<uint32_t>(o.delta_blocks) : 1024;
  const uint64_t state_bytes =
      o.state_bytes > 0 ? static_cast<uint64_t>(o.state_bytes) : 32768;

  harness::ScenarioConfig base =
      bench::make_config(o, "MiniGhost", k, harness::ProtocolKind::kSpbc);
  base.app_cfg.validate = true;  // checksum identity is the point here
  base.spbc.storage = ckpt::StorageLevel::kPfs;
  base.spbc.async_staging = true;
  base.spbc.reduction.block_bytes = block;
  base.spbc.reduction.full_stride =
      static_cast<uint64_t>(o.full_stride < 0 ? 0 : o.full_stride);
  base.spbc.state_model.bytes = state_bytes;
  base.spbc.state_model.block_bytes = block;
  base.spbc.state_model.mutation_rate = o.mutation_rate;
  base.spbc.state_model.seed = o.seed;

  constexpr double kFailFrac = 0.6;
  struct Variant {
    const char* name;
    bool delta;
    bool compress;
  };
  const Variant variants[] = {
      {"raw", false, false},
      {"compress", false, true},
      {"delta", true, false},
      {"delta+compress", true, true},
  };

  util::Table tab({"Variant", "raw KB", "stored KB", "reduction", "deltas",
                   "wire KB L/P/F", "rework", "restore"});
  std::map<std::string, VariantOutcome> out;
  for (const Variant& v : variants) {
    harness::ScenarioConfig cfg = base;
    cfg.spbc.reduction.delta = v.delta;
    cfg.spbc.reduction.compress = v.compress;
    harness::ScenarioResult ff = harness::run_failure_free(cfg);
    if (!ff.run.completed) {
      tab.add_row({v.name, "-", "-", "-", "-", "-", "-", "fail"});
      continue;
    }
    harness::ScenarioResult fr =
        harness::run_with_failure(cfg, ff.elapsed, kFailFrac);
    VariantOutcome& vo = out[v.name];
    vo.raw = ff.ckpt_raw_bytes;
    vo.stored = ff.ckpt_stored_bytes;
    vo.deltas = ff.delta_snapshots;
    vo.wire_partner = ff.staging.bytes_to_partner + ff.staging.bytes_to_parity;
    vo.wire_pfs = ff.staging.bytes_to_pfs;
    vo.rework = fr.normalized_rework();
    // Zero false successes: a "successful" recovery with different
    // checksums is a silent corruption and fails the row outright.
    vo.ok = fr.run.completed && !ff.checksums.empty() &&
            fr.checksums == ff.checksums;
    tab.add_row(
        {v.name, kb(vo.raw), kb(vo.stored),
         util::Table::fmt(
             vo.stored ? static_cast<double>(vo.raw) /
                             static_cast<double>(vo.stored)
                       : 0.0,
             2) + "x",
         std::to_string(vo.deltas),
         kb(ff.staging.bytes_to_local) + "/" + kb(vo.wire_partner) + "/" +
             kb(vo.wire_pfs),
         util::Table::fmt(vo.rework, 3), vo.ok ? "ok" : "fail"});
  }
  std::printf("%s\n", tab.render().c_str());

  // ---- gates -------------------------------------------------------------
  bool gates_ok = true;
  for (const Variant& v : variants) {
    if (!out.count(v.name) || !out[v.name].ok) {
      std::printf("identity gate: %s FAIL (run failed or checksums drifted)\n",
                  v.name);
      gates_ok = false;
    }
  }
  if (out.count("raw") && out.count("delta+compress")) {
    const uint64_t raw_wire =
        out["raw"].wire_partner + out["raw"].wire_pfs;
    const uint64_t red_wire =
        out["delta+compress"].wire_partner + out["delta+compress"].wire_pfs;
    const double cut = red_wire ? static_cast<double>(raw_wire) /
                                      static_cast<double>(red_wire)
                                : 0.0;
    const bool cut_ok = red_wire > 0 && cut >= 2.0;
    std::printf(
        "bytes gate: delta+compress PARTNER+PFS bytes %.2fx below raw "
        "(need >= 2.0) %s\n",
        cut, cut_ok ? "OK" : "FAIL");
    gates_ok = gates_ok && cut_ok;
    const bool deltas_seen = out["delta+compress"].deltas > 0;
    if (!deltas_seen) {
      std::printf("bytes gate: no delta captures were taken FAIL\n");
      gates_ok = false;
    }
  } else {
    gates_ok = false;
  }
  if (out.count("delta")) {
    const VariantOutcome& d = out["delta"];
    const double red =
        d.stored ? static_cast<double>(d.raw) / static_cast<double>(d.stored) : 0.0;
    const bool delta_ok = red >= 2.0;
    std::printf("delta gate: delta alone stores %.2fx below raw (need >= 2.0) %s\n",
                red, delta_ok ? "OK" : "FAIL");
    gates_ok = gates_ok && delta_ok;
  } else {
    gates_ok = false;
  }

  // Shard-layout bit-identity at full reduction: one event queue (the
  // default layout) vs one queue per cluster (DESIGN.md §12).
  {
    harness::ScenarioConfig cfg = base;
    cfg.spbc.reduction.delta = true;
    cfg.spbc.reduction.compress = true;
    cfg.machine.engine_shards = 1;
    harness::ScenarioResult one = harness::run_failure_free(cfg);
    cfg.machine.engine_shards = 0;  // one shard per cluster
    harness::ScenarioResult per = harness::run_failure_free(cfg);
    const bool shard_ok = one.run.completed && per.run.completed &&
                          one.checksums == per.checksums &&
                          one.ckpt_stored_bytes == per.ckpt_stored_bytes &&
                          one.delta_snapshots == per.delta_snapshots;
    std::printf("shard gate: delta+compress bit-identical across layouts %s "
                "(checksums %s, raw %llu vs %llu, stored %llu vs %llu, "
                "deltas %llu vs %llu)\n",
                shard_ok ? "OK" : "FAIL",
                one.checksums == per.checksums ? "equal" : "DIFFER",
                static_cast<unsigned long long>(one.ckpt_raw_bytes),
                static_cast<unsigned long long>(per.ckpt_raw_bytes),
                static_cast<unsigned long long>(one.ckpt_stored_bytes),
                static_cast<unsigned long long>(per.ckpt_stored_bytes),
                static_cast<unsigned long long>(one.delta_snapshots),
                static_cast<unsigned long long>(per.delta_snapshots));
    gates_ok = gates_ok && shard_ok;
  }

  return gates_ok ? 0 : 1;
}
