// MiniFE and NAS BT ported to the four-call facade (core/facade.hpp) —
// living integration documentation for adopting SPBC in an existing code.
//
// Diff against the pattern-API originals (minife.cpp / nas.cpp):
//   * set_state_handlers + restarted()/restore_app_state() are GONE. The
//     facade owns the app-state section of the snapshot; the app talks to it
//     only through named regions.
//   * rank.maybe_checkpoint() at the iteration boundary becomes the recipe
//       spbc_need_checkpoint -> spbc_start -> spbc_route* -> spbc_complete
//     The trigger question is answered by the same logic (control plane's
//     Young/Daly boundary, the static schedule, or a cluster peer's wave
//     marker running ahead), so facade apps pace — and JOIN — checkpoint
//     waves exactly like pattern-API apps.
//   * Startup asks spbc_have_restart instead of rank.restarted(); restored
//     regions come back via spbc_restart_read, byte-identical to what the
//     last committed session routed.
//   * Pattern annotations are ORTHOGONAL and stay: MiniFE's ANY_SOURCE setup
//     exchange still declares its pattern — the facade replaces the
//     checkpoint lifecycle, not id-based matching.

#include <cstring>
#include <vector>

#include "apps/app.hpp"
#include "apps/assumed_partition.hpp"
#include "apps/decomp.hpp"
#include "core/api.hpp"
#include "core/facade.hpp"
#include "mpi/collectives.hpp"
#include "util/assert.hpp"

namespace spbc::apps {

namespace {

using core::spbc_complete;
using core::spbc_have_restart;
using core::spbc_need_checkpoint;
using core::spbc_restart_read;
using core::spbc_route;
using core::spbc_start;
using core::SPBC_ERR_TRUNCATED;
using core::SPBC_SUCCESS;

/// Reads region `name` into `out`, growing it to fit — the standard
/// two-call sizing idiom for a C-style restart API: probe with capacity 0,
/// get SPBC_ERR_TRUNCATED plus the required size, then read for real.
void read_region(mpi::Rank& rank, const char* name,
                 std::vector<unsigned char>& out) {
  uint64_t need = 0;
  int rc = spbc_restart_read(rank, name, nullptr, &need);
  SPBC_ASSERT_MSG(rc == SPBC_ERR_TRUNCATED || (rc == SPBC_SUCCESS && need == 0),
                  "restart region '" << name << "': "
                                     << core::spbc_error_string(rc));
  out.resize(need);
  rc = spbc_restart_read(rank, name, out.data(), &need);
  SPBC_ASSERT_MSG(rc == SPBC_SUCCESS, core::spbc_error_string(rc));
}

/// The boundary recipe shared by both ports: ask, and if the protocol says
/// yes, commit `meta` and `payload` as the checkpoint. `force` skips the
/// ask (a phase boundary the app always wants captured).
void facade_boundary(mpi::Rank& rank, const util::ByteWriter& meta,
                     const std::vector<double>& payload, bool force = false) {
  int need = 0;
  if (!force) {
    int rc = spbc_need_checkpoint(rank, &need);
    SPBC_ASSERT_MSG(rc == SPBC_SUCCESS, core::spbc_error_string(rc));
    if (!need) return;
  }
  SPBC_ASSERT(spbc_start(rank) == SPBC_SUCCESS);
  char where[128];
  SPBC_ASSERT(spbc_route(rank, "meta", meta.bytes().data(), meta.size(), where,
                         sizeof where) == SPBC_SUCCESS);
  SPBC_ASSERT(spbc_route(rank, "field", payload.data(),
                         payload.size() * sizeof(double), nullptr,
                         0) == SPBC_SUCCESS);
  SPBC_ASSERT(spbc_complete(rank, /*valid=*/1) == SPBC_SUCCESS);
}

struct FacadeAppState {
  int iter = 0;
  uint64_t checksum = 0;
  bool setup_done = false;
  std::vector<double> field;  // validate-mode solution / grid fragment

  util::ByteWriter meta() const {
    util::ByteWriter w;
    w.put<int>(iter);
    w.put<uint64_t>(checksum);
    w.put<uint8_t>(setup_done ? 1 : 0);
    return w;
  }
  /// Restart: pull both regions back; no-op when there is no checkpoint
  /// (fresh start or sigma_0 rollback — the app re-runs from the top).
  void maybe_restore(mpi::Rank& rank) {
    int have = 0;
    SPBC_ASSERT(spbc_have_restart(rank, &have) == SPBC_SUCCESS);
    if (!have) return;
    std::vector<unsigned char> buf;
    read_region(rank, "meta", buf);
    util::ByteReader r(buf);
    iter = r.get<int>();
    checksum = r.get<uint64_t>();
    setup_done = r.get<uint8_t>() != 0;
    std::vector<unsigned char> fb;
    read_region(rank, "field", fb);
    SPBC_ASSERT(fb.size() % sizeof(double) == 0);
    field.resize(fb.size() / sizeof(double));
    if (!fb.empty()) std::memcpy(field.data(), fb.data(), fb.size());
  }
};

}  // namespace

void minife_facade_main(mpi::Rank& rank, const AppConfig& cfg) {
  const mpi::Comm& world = rank.world();
  Grid3D grid = Grid3D::balanced(rank.nranks(), /*periodic=*/false);
  const int me = rank.rank();
  const int n = rank.nranks();
  const std::vector<int> neighbors = grid.face_neighbors(me);

  // 1. Restart hook — replaces set_state_handlers + restore_app_state.
  FacadeAppState st;
  if (cfg.validate) st.field.assign(32, 1.0 / (1.0 + me));
  st.maybe_restore(rank);

  // 2. Setup: the ANY_SOURCE neighbor discovery keeps its pattern
  //    annotation — id-based matching is orthogonal to the facade.
  const core::pattern_id setup_pattern = core::DECLARE_PATTERN(rank);
  if (!st.setup_done) {
    core::BEGIN_ITERATION(rank, setup_pattern);
    ApExchangeSpec spec;
    spec.contacts = &contact_table(ContactSet::kFacadeSetup, n);
    spec.tag_query = 30;
    spec.tag_reply = 31;
    spec.query_bytes = 2 * 1000;
    spec.reply_bytes = 8 * 1000;
    spec.hash_key = 0xfade0;
    assumed_partition_exchange(rank, world, cfg, spec, st.checksum);
    core::END_ITERATION(rank, setup_pattern);
    rank.compute(10e-3 * cfg.compute_scale);  // matrix assembly
    st.setup_done = true;
    // Phase boundary the app always wants captured: setup is expensive.
    facade_boundary(rank, st.meta(), st.field, /*force=*/true);
  }

  // 3. CG loop — communication unchanged; only the boundary call differs.
  for (; st.iter < cfg.iters;) {
    std::vector<mpi::Request> recvs;
    for (int nb : neighbors) recvs.push_back(rank.irecv(nb, 32, world));
    const uint64_t bytes = static_cast<uint64_t>(
        6000.0 * cfg.burst_msg_scale(st.iter));
    for (int nb : neighbors) {
      uint64_t h = synthetic_hash(static_cast<uint64_t>(me),
                                  static_cast<uint64_t>(nb),
                                  static_cast<uint64_t>(st.iter), 0xfade1);
      rank.isend(nb, 32, make_payload(cfg, bytes, h, &st.field), world);
    }
    for (auto& rr : recvs) {
      rank.wait(rr);
      fold_checksum(st.checksum, rr.result());
    }

    rank.compute(55e-3 * cfg.compute_scale);  // sparse matvec dominates
    double local_dot = 0;
    if (cfg.validate) {
      for (auto& v : st.field) {
        v *= 0.999;
        local_dot += v * v;
      }
    } else {
      local_dot = static_cast<double>(st.iter + me);
    }
    double d1 = mpi::allreduce_scalar(rank, local_dot, mpi::ReduceOp::kSum, world);
    double d2 = mpi::allreduce_scalar(rank, d1 * 0.5, mpi::ReduceOp::kSum, world);
    util::Fnv1a64 h;
    h.update_u64(st.checksum);
    h.update(&d2, sizeof(d2));
    st.checksum = h.digest();

    ++st.iter;
    // 4. The four-call recipe at the iteration boundary.
    facade_boundary(rank, st.meta(), st.field);
  }
  publish_checksum(rank, cfg, st.checksum);
}

void nas_bt_facade_main(mpi::Rank& rank, const AppConfig& cfg) {
  // BT's ADI iteration (see nas.cpp): pipelined line sweeps along both grid
  // dimensions, then a boundary face exchange — checkpointed via the facade.
  const mpi::Comm& world = rank.world();
  Grid2D grid = Grid2D::balanced(rank.nranks(), /*periodic=*/false);
  const int me = rank.rank();
  constexpr uint64_t kSweepBytes = 40 * 1000;
  constexpr uint64_t kFaceBytes = 30 * 1000;

  FacadeAppState st;
  if (cfg.validate) st.field.assign(32, 1.0 + 0.01 * me);
  st.maybe_restore(rank);

  auto sweep = [&](int dim, int dir, int tag, uint64_t salt) {
    int pred = grid.neighbor(me, dim, -dir);
    int succ = grid.neighbor(me, dim, dir);
    if (pred >= 0) fold_checksum(st.checksum, rank.recv(pred, tag, world));
    rank.compute(6e-3 * cfg.compute_scale);
    if (succ >= 0) {
      uint64_t h = synthetic_hash(static_cast<uint64_t>(me),
                                  static_cast<uint64_t>(succ),
                                  static_cast<uint64_t>(st.iter), salt);
      rank.send(succ, tag,
                make_payload(cfg,
                             static_cast<uint64_t>(
                                 static_cast<double>(kSweepBytes) *
                                 cfg.burst_msg_scale(st.iter)),
                             h, &st.field),
                world);
    }
  };

  for (; st.iter < cfg.iters;) {
    for (int dim = 0; dim < 2; ++dim) {
      sweep(dim, +1, 70 + dim, 0xbf00 + static_cast<uint64_t>(dim));
      sweep(dim, -1, 72 + dim, 0xbf10 + static_cast<uint64_t>(dim));
    }
    // Boundary face exchange.
    std::vector<int> nbrs = grid.face_neighbors(me);
    std::vector<mpi::Request> recvs;
    for (int nb : nbrs) recvs.push_back(rank.irecv(nb, 75, world));
    for (int nb : nbrs) {
      uint64_t h = synthetic_hash(static_cast<uint64_t>(me),
                                  static_cast<uint64_t>(nb),
                                  static_cast<uint64_t>(st.iter), 0xbf20);
      rank.isend(nb, 75,
                 make_payload(cfg,
                              static_cast<uint64_t>(
                                  static_cast<double>(kFaceBytes) *
                                  cfg.burst_msg_scale(st.iter)),
                              h, &st.field),
                 world);
    }
    for (auto& rr : recvs) {
      rank.wait(rr);
      fold_checksum(st.checksum, rr.result());
    }
    rank.compute(18e-3 * cfg.compute_scale);
    if (cfg.validate)
      for (auto& v : st.field) v = 0.95 * v + 0.001;
    ++st.iter;
    facade_boundary(rank, st.meta(), st.field);
  }
  publish_checksum(rank, cfg, st.checksum);
}

}  // namespace spbc::apps
