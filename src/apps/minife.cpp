// MiniFE skeleton: unstructured implicit finite-element proxy — assemble,
// then solve with CG.
//
// The setup phase discovers which ranks own externally-referenced rows; the
// owners cannot know who will query them, so the discovery uses the
// Figure-4-style ANY_SOURCE exchange (this is the single pattern Section 6.1
// says was annotated in MiniFE). The CG iterations that follow are named-
// source halo exchanges plus two dot-product allreduces per iteration, with
// a heavy sparse matvec — comm ratio below 10% and the smallest log volume
// of the six workloads (Table 1).

#include "apps/app.hpp"
#include "apps/assumed_partition.hpp"
#include "apps/decomp.hpp"
#include "core/api.hpp"
#include "mpi/collectives.hpp"

namespace spbc::apps {

namespace {
constexpr int kTagSetupQuery = 30;
constexpr int kTagSetupReply = 31;
constexpr int kTagHalo = 32;
// 800^3 FE mesh over 512 ranks: CG halos are boundary-row fragments (~6 KB);
// the matvec dominates at ~55 ms/iteration.
constexpr uint64_t kHaloBytes = 6 * 1000;
constexpr uint64_t kSetupBytes = 2 * 1000;
constexpr double kMatvecSeconds = 55e-3;

struct State : BaseState {
  bool setup_done = false;
  std::vector<double> x;  // validate-mode solution fragment

  void serialize(util::ByteWriter& w) const {
    BaseState::serialize(w);
    w.put<uint8_t>(setup_done ? 1 : 0);
    w.put_vector(x);
  }
  void restore(util::ByteReader& r) {
    BaseState::restore(r);
    setup_done = r.get<uint8_t>() != 0;
    x = r.get_vector<double>();
  }
};

}  // namespace

void minife_main(mpi::Rank& rank, const AppConfig& cfg) {
  const mpi::Comm& world = rank.world();
  Grid3D grid = Grid3D::balanced(rank.nranks(), /*periodic=*/false);
  const int me = rank.rank();
  const int n = rank.nranks();
  const std::vector<int> neighbors = grid.face_neighbors(me);

  State st;
  if (cfg.validate) st.x.assign(32, 1.0 / (1.0 + me));
  rank.set_state_handlers([&st](util::ByteWriter& w) { st.serialize(w); },
                          [&st](util::ByteReader& r) { st.restore(r); });
  if (rank.restarted()) rank.restore_app_state();

  // ---- setup: make_local_matrix neighbor discovery (ANY_SOURCE) ----------
  const core::pattern_id setup_pattern = core::DECLARE_PATTERN(rank);
  if (!st.setup_done) {
    core::BEGIN_ITERATION(rank, setup_pattern);
    ApExchangeSpec spec;
    // Data-dependent contact set: face neighbors plus a couple of
    // hash-derived "unstructured mesh" contacts.
    spec.contacts = &contact_table(ContactSet::kMinifeSetup, n);
    spec.tag_query = kTagSetupQuery;
    spec.tag_reply = kTagSetupReply;
    spec.query_bytes = kSetupBytes;
    spec.reply_bytes = kSetupBytes * 4;
    spec.hash_key = 0xfe00;
    assumed_partition_exchange(rank, world, cfg, spec, st.checksum);
    core::END_ITERATION(rank, setup_pattern);
    rank.compute(10e-3 * cfg.compute_scale);  // matrix assembly
    st.setup_done = true;
    rank.maybe_checkpoint();
  }

  // ---- CG iterations ------------------------------------------------------
  for (; st.iter < cfg.iters;) {
    // Halo exchange of boundary rows (named sources).
    std::vector<mpi::Request> recvs;
    for (int nb : neighbors) recvs.push_back(rank.irecv(nb, kTagHalo, world));
    const uint64_t bytes = static_cast<uint64_t>(
        static_cast<double>(kHaloBytes) * cfg.burst_msg_scale(st.iter));
    for (int nb : neighbors) {
      uint64_t h = synthetic_hash(static_cast<uint64_t>(me), static_cast<uint64_t>(nb),
                                  static_cast<uint64_t>(st.iter), 0xfe01);
      rank.isend(nb, kTagHalo, make_payload(cfg, bytes, h, &st.x), world);
    }
    for (auto& rr : recvs) {
      rank.wait(rr);
      fold_checksum(st.checksum, rr.result());
    }

    // Sparse matvec dominates.
    rank.compute(kMatvecSeconds * cfg.compute_scale);
    double local_dot = 0;
    if (cfg.validate) {
      for (auto& v : st.x) {
        v *= 0.999;
        local_dot += v * v;
      }
    } else {
      local_dot = static_cast<double>(st.iter + me);
    }

    // Two dot products per CG iteration (alpha and beta).
    double d1 = mpi::allreduce_scalar(rank, local_dot, mpi::ReduceOp::kSum, world);
    double d2 = mpi::allreduce_scalar(rank, d1 * 0.5, mpi::ReduceOp::kSum, world);
    util::Fnv1a64 h;
    h.update_u64(st.checksum);
    h.update(&d2, sizeof(d2));
    st.checksum = h.digest();

    ++st.iter;
    rank.maybe_checkpoint();
  }
  publish_checksum(rank, cfg, st.checksum);
}

}  // namespace spbc::apps
