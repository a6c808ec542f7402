#pragma once
// Scheme-agnostic randomized failure-matrix harness.
//
// The failure space of the redundancy layer — scheme x group shape x loss
// count x loss timing (pre-drain / mid-drain / mid-rebuild) x loss
// correlation (domain-correlated vs independent) x PFS frontier position —
// is far too large for hand-written cases. This harness samples a point of
// that space from a seed (fully reproducible: re-running the same seed
// replays the same case), drives a real sim::Engine + net::Network +
// ckpt::StagingArea through it, and asserts the invariants every scheme
// must share:
//
//   1. Plan consistency: `recoverable_without_pfs` true implies the restore
//      plan reads only the redundancy layer (LOCAL / remote copy /
//      rebuild); false implies the plan is the PFS or nothing.
//   2. Guaranteed tolerance: with losses settled and the in-group loss
//      count within the scheme's advertised distance (PARTNER: the buddy
//      survives; RS(k, m): any m, so XOR = RS(G-1, 1): one), the victim
//      MUST be recoverable without the PFS, and executing the restore must
//      succeed without touching it.
//   3. Checksum identity: a restore served by the redundancy layer is
//      re-derived through a shadow codec — real GF(256) Cauchy solves for
//      RS, full copies for PARTNER — and must reproduce the
//      original snapshot exactly (Fnv1a64). The shadow models the full
//      data-reduction pipeline (DESIGN.md §15): its logical payloads come
//      from the shared block-mutation generator, what the wire carries is
//      the ENCODED blob (block delta for epoch 2 + LZ compression), and
//      checksum identity is asserted on the LOGICAL (decoded) payload, so a
//      codec or chain-decode defect fails the oracle even when the scheme's
//      arithmetic is right. The shadow works at a capped payload length;
//      the simulator's ceil(B/k) fragment sizes are its wire-cost
//      abstraction of the striped layout.
//   4. No false success: when the predicate is false and no PFS copy
//      exists, the executed restore must report failure (the caller's
//      epoch-fallback path), never invent data.
//   5. Re-protection: after an in-tolerance loss that killed fragment
//      hosts (but not the owner), the proactive re-encode must restore the
//      scheme's full liveness while the epoch is still short of the PFS.
//   6. Distance: whenever RS claims a rebuild without the PFS, at most m
//      members of the group have unknown epoch-e data.
//
// The gtest driver (test_failure_matrix.cpp) sweeps seeds; CI runs a
// 200-case sweep. On any violation the failing seed is printed so the case
// replays locally with `SPBC_FM_SEED=<seed> SPBC_FM_CASES=1`.

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/redundancy.hpp"

namespace spbc::testing {

struct FailureCase {
  uint64_t seed = 0;
  ckpt::RedundancyConfig redundancy;
  int nodes = 0;      // one rank per node
  int nclusters = 0;  // failure domains (cluster map: node / cluster_span)
  uint64_t bytes = 0;  // snapshot payload bytes
  int losses = 0;      // node losses injected
  bool correlated = false;  // victims drawn from a single failure domain
  /// When the losses land relative to the staging pipeline.
  enum class Timing {
    kPreDrain,    // between epoch 1 settling and epoch 2 being written
    kSettled,     // after every placement of both epochs landed
    kMidDrain,    // while epoch 2's fragment placements are on the wire
    kMidRebuild,  // one extra source death while a rebuild read is in flight
    /// Silent-fragment-loss bucket: no node dies; `losses` staged fragments
    /// are corrupted in place (the host keeps believing it holds them) and a
    /// scrub wave runs. Asserts detection, repair back to full liveness
    /// while the PFS lags, and oracle agreement afterwards.
    kMidScrub,
    /// Node-never-returns bucket: each loss is a PERMANENT node death —
    /// invalidate + mpi::Machine::retire_node, so the victims' ranks rebind
    /// onto pooled spares (or pack onto survivors when the pool is
    /// exhausted, `spares` = 0). Asserts the rebind happened, the swap /
    /// shrink accounting, and that in-tolerance losses stay recoverable
    /// without the PFS against the NEW physical binding. With several
    /// losses, one is held in reserve and lands while the spare rebuild's
    /// reads are in flight (swap-in-progress loss).
    kSpareSwap,
    /// Delta-chain bucket: epoch 2 is staged as a DELTA anchored on epoch 1
    /// (chain_base = 1), and the losses land with the chain live. Asserts
    /// chain-aware recoverability (the head is recoverable only while its
    /// base is), that an exhausted chain's restore reports failure instead
    /// of inventing data, and that the epoch-1 fallback target then still
    /// restores whenever its own elements survive.
    kMidDeltaChain,
  };
  Timing timing = Timing::kSettled;
  bool flush_pfs = false;  // fast PFS: the frontier covers every epoch
  int spares = 0;          // pooled spare nodes (kSpareSwap bucket only)

  /// Hostile-shape dimension (DESIGN.md §16), orthogonal to `timing`: the
  /// same loss pattern replayed under an adversarial environment.
  enum class Hostile {
    kNone,
    /// Straggler / slow-node skew: odd nodes cut epoch 2 late (+0.15 s), so
    /// the wave's placements straggle across the kill instead of moving in
    /// lockstep. A victim whose skewed write would land after its own death
    /// never writes (a dead node must not re-enter service).
    kStragglerSkew,
    /// Healing partition: a network partition splits the machine at
    /// nodes/2 while epoch 2's placements are on the wire and heals before
    /// the invariant checks — held fragments must land and count.
    kPartitionHeal,
    /// Correlated hardware domains: victims are drawn from one rack
    /// (contiguous 4-node span), one leaf switch (node % 2 stripe), or one
    /// PSU pair {2k, 2k+1} instead of a cluster — the blast patterns the
    /// correlated-double estimator must survive. Widened to the whole
    /// machine when the domain is smaller than the loss count.
    kRackDomain,
    kSwitchDomain,
    kPsuDomain,
  };
  Hostile hostile = Hostile::kNone;
};

struct CaseResult {
  bool ok = true;
  std::vector<std::string> violations;
};

const char* scheme_name(ckpt::SchemeKind kind);
const char* timing_name(FailureCase::Timing t);
const char* hostile_name(FailureCase::Hostile h);

/// Deterministically expands `seed` into a case (scheme, shape, losses,
/// timing, correlation, PFS speed).
FailureCase sample_case(uint64_t seed);

/// One-line description for failure messages.
std::string describe_case(const FailureCase& c);

/// Runs the case and checks the shared invariants.
CaseResult run_case(const FailureCase& c);

}  // namespace spbc::testing

namespace spbc::ckpt {
class StagingArea;
}

namespace spbc::testing {

/// Brute-force derivability oracle over the live residency of (rank,
/// epoch): attempts an *actual* reconstruction of the payload bytes — a
/// full-copy read or a GF(256) Cauchy solve — from exactly
/// what the residency view says is readable, and checks the result against
/// the original checksum. The liveness property test asserts that no
/// scheme ever claims `recoverable_without_pfs` beyond this oracle (no
/// false liveness). The machine must run one rank per node.
bool oracle_recoverable(const ckpt::StagingArea& area,
                        const ckpt::RedundancyConfig& red, int nodes,
                        int rank, uint64_t epoch);

}  // namespace spbc::testing
