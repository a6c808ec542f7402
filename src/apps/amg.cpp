// BoomerAMG skeleton: parallel algebraic multigrid V-cycles with the
// assumed-partition exchanges of Figure 4 at every level.
//
// AMG is the paper's star witness: its exchange is channel-deterministic
// but NOT send-deterministic (a process answers queries in arrival order, so
// its per-process send sequence differs between valid executions while every
// per-channel sequence is fixed), it needs the ANY_SOURCE pattern API in
// three places, it spends over half its time communicating (coarse levels
// are latency-bound swarms of small messages), and it gains the most from
// recovery (up to ~25% faster than failure-free in Fig. 5).
//
// Skeleton: L levels; at each level, a query/reply exchange with a
// data-dependent contact set (face neighbors at the fine level, widening
// hash-derived sets at coarse levels), message sizes shrinking 4x per level
// and compute shrinking 6x per level. Three annotated patterns: down-sweep
// exchange, up-sweep exchange, and the inter-cycle residual exchange.

#include "apps/app.hpp"
#include "apps/assumed_partition.hpp"
#include "core/api.hpp"
#include "mpi/collectives.hpp"

namespace spbc::apps {

namespace {
constexpr int kLevels = 4;
constexpr int kTagQueryBase = 60;  // +2*level
// AMG's cost is in the message COUNT (latency-bound coarse levels, probe
// loops, termination), not volume: the paper logs only ~1.7 MB/s/process
// even under pure message logging while spending >50% of the time in
// communication.
constexpr uint64_t kFineBytes = 4 * 1000;
constexpr double kFineComputeSeconds = 8e-3;

struct State : BaseState {
  std::vector<double> residual;

  void serialize(util::ByteWriter& w) const {
    BaseState::serialize(w);
    w.put_vector(residual);
  }
  void restore(util::ByteReader& r) {
    BaseState::restore(r);
    residual = r.get_vector<double>();
  }
};

uint64_t level_bytes(int level) { return kFineBytes >> (2 * level); }
}  // namespace

void amg_main(mpi::Rank& rank, const AppConfig& cfg) {
  const mpi::Comm& world = rank.world();
  const int n = rank.nranks();

  State st;
  if (cfg.validate) st.residual.assign(32, 1.0);
  rank.set_state_handlers([&st](util::ByteWriter& w) { st.serialize(w); },
                          [&st](util::ByteReader& r) { st.restore(r); });
  if (rank.restarted()) rank.restore_app_state();

  // Three communication patterns include MPI_ANY_SOURCE (Section 6.1:
  // "In AMG ... three patterns include MPI_ANY_SOURCE. For each pattern it
  // was enough to enclose the function that contains it between a
  // BEGIN_ITERATION and an END_ITERATION call.")
  const core::pattern_id down_pattern = core::DECLARE_PATTERN(rank);
  const core::pattern_id up_pattern = core::DECLARE_PATTERN(rank);
  const core::pattern_id residual_pattern = core::DECLARE_PATTERN(rank);

  auto run_level = [&](int level, core::pattern_id pattern, uint64_t salt) {
    core::BEGIN_ITERATION(rank, pattern);
    ApExchangeSpec spec;
    // Contacts: faces at the fine level; coarser levels reach farther.
    spec.contacts = &contact_table(ContactSet::kAmgLevel, n, level);
    spec.tag_query = kTagQueryBase + 2 * level;
    spec.tag_reply = kTagQueryBase + 2 * level + 1;
    spec.query_bytes = std::max<uint64_t>(level_bytes(level) / 8, 256);
    spec.reply_bytes = std::max<uint64_t>(level_bytes(level), 512);
    spec.hash_key = salt * 131 + static_cast<uint64_t>(level);
    assumed_partition_exchange(rank, world, cfg, spec, st.checksum);
    core::END_ITERATION(rank, pattern);
    double c = kFineComputeSeconds / (1 << level) / (1 << (level / 2));
    rank.compute(c * cfg.compute_scale);
  };

  for (; st.iter < cfg.iters;) {
    uint64_t cycle_salt = static_cast<uint64_t>(st.iter) * 7919;
    // Down sweep: smooth + restrict through the hierarchy.
    for (int level = 0; level < kLevels; ++level)
      run_level(level, down_pattern, cycle_salt * 2);
    // Up sweep: interpolate + smooth back to the fine level.
    for (int level = kLevels - 1; level >= 0; --level)
      run_level(level, up_pattern, cycle_salt * 2 + 1);

    // Residual norm exchange (third annotated pattern) + convergence check.
    core::BEGIN_ITERATION(rank, residual_pattern);
    ApExchangeSpec spec;
    spec.contacts = &contact_table(ContactSet::kAmgLevel, n, 0);
    spec.tag_query = kTagQueryBase + 2 * kLevels;
    spec.tag_reply = kTagQueryBase + 2 * kLevels + 1;
    spec.query_bytes = 512;
    spec.reply_bytes = 2048;
    spec.hash_key = cycle_salt * 2 + 7;
    assumed_partition_exchange(rank, world, cfg, spec, st.checksum);
    core::END_ITERATION(rank, residual_pattern);

    if (cfg.validate) {
      for (auto& v : st.residual) v *= 0.6;
    }
    double norm = cfg.validate ? st.residual[0] : 1.0 / (1 + st.iter);
    double global = mpi::allreduce_scalar(rank, norm, mpi::ReduceOp::kMax, world);
    util::Fnv1a64 h;
    h.update_u64(st.checksum);
    h.update(&global, sizeof(global));
    st.checksum = h.digest();

    ++st.iter;
    rank.maybe_checkpoint();
  }
  publish_checksum(rank, cfg, st.checksum);
}

}  // namespace spbc::apps
