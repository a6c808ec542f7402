#pragma once
// Pluggable redundancy schemes for the staged checkpoint write path.
//
// SCR's redundancy descriptor (Moody et al., SC'10 — `scr_reddesc`) showed
// that the *shape* of a checkpoint's redundancy is a policy, not a property
// of the write path: SINGLE (node-local only), PARTNER (full copy on a buddy
// node), XOR (RAID-5-style parity across a small group of nodes spanning
// failure domains) trade write bandwidth against failure coverage. This
// header extracts that decision out of ckpt::StagingArea: staging no longer
// knows what redundancy *means*, it only executes placement plans.
//
// A scheme answers three questions:
//   * encode  — which fragments (full copies or parity) to place where when
//     a snapshot's LOCAL write completes, skipping hosts whose storage died;
//   * liveness — is epoch e of a rank reconstructible without reading the
//     PFS, given the current residency (LOCAL copies, fragments, dead nodes);
//   * rebuild — the cheapest live reconstruction: a direct read (LOCAL, a
//     remote full copy, the PFS) or an erasure-code rebuild. A scheme picks
//     the sources and lists the reads; staging prices and times them.
//
// The kPartner scheme keeps the pre-refactor buddy mapping and restore
// order (LOCAL < remote copy < PFS). kReedSolomon is the one group-parity
// family: GF(256) Reed-Solomon (util/gf256.hpp) over groups of k+m nodes,
// m parity shares of ceil(B/k) bytes per snapshot — (m/k)x the partner
// bytes — tolerating any m concurrent in-group node losses. XOR parity over
// G-node groups is its RS(G-1, 1) setting. The liveness lattice is SINGLE < PARTNER < RS(k, m).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/store.hpp"

namespace spbc::mpi {
class Machine;
}

namespace spbc::ckpt {

enum class SchemeKind : uint8_t {
  kSingle,       // LOCAL only: no remote redundancy (fast, no node-loss cover)
  kPartner,      // full copy on a cross-failure-domain buddy node (the default)
  kReedSolomon,  // GF(256) RS(k, m): m parity shares, any-m-loss tolerance
                 // (XOR group parity over G nodes is RS(G-1, 1))
};

std::optional<SchemeKind> parse_scheme(const std::string& name);

struct RedundancyConfig {
  SchemeKind kind = SchemeKind::kPartner;
  /// Reed-Solomon shape: groups of k+m nodes, m parity shares of
  /// ceil(B/k) bytes per snapshot, any m in-group node losses tolerated.
  /// Groups are dealt round-robin over the cluster-sorted node list so each
  /// group spans as many failure domains (clusters) as possible.
  int rs_k = 4;
  int rs_m = 2;
};

/// One remote protection fragment of a (rank, epoch) snapshot: a full copy
/// (PARTNER) or a parity share (RS). Fragments are recorded when
/// their placement starts and turn live when the copy lands; a host node's
/// death flips them dead again.
struct Fragment {
  int host_rank = -1;  // rank whose node hosts the fragment
  int host_node = -1;
  uint64_t bytes = 0;
  bool parity = false;  // full copy otherwise
  bool live = false;
  /// Logical share id within the owner's redundancy set (0 for PARTNER;
  /// 0..m-1 under RS, where it selects the Cauchy parity row — a
  /// re-protection re-places the same share id on a new host).
  int share = 0;
  /// Silently lost: the host still believes it holds the fragment (live
  /// stays set, residency queries keep counting it) but the bytes are gone.
  /// An audit — a background scrub probe or the restore path's checksum of
  /// its source — discovers the loss and flips the fragment dead, KEEPING
  /// this bit set as "confirmed lost". While live, schemes never consult
  /// the bit (belief and truth diverging is the point); once dead, it tells
  /// the RS encode the share is genuinely gone rather than still in flight
  /// to its in-service host, so a repair re-places it.
  bool corrupt = false;
};

/// One placement the write path must execute: `bytes` from the snapshot
/// owner's node to `host_rank`'s node, over the real network.
struct PlacementStep {
  int host_rank = -1;
  uint64_t bytes = 0;
  bool parity = false;
  int share = 0;
};

struct PlacementPlan {
  std::vector<PlacementStep> steps;
};

/// How a restore gets the snapshot bytes back: a source and the reads that
/// fetch it. A direct plan (LOCAL, remote copy, PFS) is one read of the
/// whole snapshot; a rebuild reads every surviving member's folded
/// contribution plus one parity share per lost member.
struct RestorePlan {
  enum class Source : uint8_t {
    kNone,        // every copy is gone (caller falls back an epoch)
    kLocal,       // node-local copy survives
    kRemoteCopy,  // full copy on a surviving host (the partner level)
    kRebuild,     // erasure decode from surviving group fragments
    kPfs,         // parallel file system
  };
  /// One read, addressed to the restoring rank. `level` names the device:
  /// kLocal reads the home node's device, kPartner reads `src_rank`'s node
  /// over net::Network, kPfs reads the file system (`src_rank` is -1).
  struct Read {
    StorageLevel level = StorageLevel::kNone;
    int src_rank = -1;
    uint64_t bytes = 0;
  };
  Source source = Source::kNone;
  std::vector<Read> reads;
};

/// Residency the scheme consults when planning: implemented by StagingArea.
class ResidencyView {
 public:
  virtual ~ResidencyView() = default;
  virtual bool has_local(int rank, uint64_t epoch) const = 0;
  virtual bool has_pfs(int rank, uint64_t epoch) const = 0;
  /// Fragments placed for (rank, epoch); nullptr when the snapshot is not
  /// registered with staging.
  virtual const std::vector<Fragment>* fragments(int rank,
                                                 uint64_t epoch) const = 0;
  virtual uint64_t snapshot_bytes(int rank, uint64_t epoch) const = 0;
  /// False while the node's storage is dead (killed, no resident rewrote).
  virtual bool node_in_service(int node) const = 0;
};

class RedundancyScheme {
 public:
  virtual ~RedundancyScheme() = default;

  virtual SchemeKind kind() const = 0;

  /// Ranks whose nodes may host fragments of `rank`'s snapshots (the
  /// protection group, excluding `rank` itself). Stable for the machine.
  virtual std::vector<int> group_of(int rank) const = 0;

  /// Encode step: fragments to place for (rank, epoch). Fragments already
  /// live (re-protection after a host loss) and out-of-service hosts are
  /// skipped; an empty plan means "no remote redundancy placeable now".
  virtual PlacementPlan encode(int rank, uint64_t epoch, uint64_t bytes,
                               const ResidencyView& view) const = 0;

  /// Liveness: can epoch e of `rank` be served without reading the PFS?
  virtual bool recoverable_without_pfs(int rank, uint64_t epoch,
                                       const ResidencyView& view) const = 0;

  /// Cheapest live reconstruction (Source::kNone when every copy is gone).
  virtual RestorePlan restore_plan(int rank, uint64_t epoch,
                                   const ResidencyView& view) const = 0;

  /// The machine's PHYSICAL rank->node binding changed (spare hot-swap,
  /// shrunk restart). Schemes that memoize host choices re-derive them;
  /// group/slot structure is LOGICAL and stays pinned — fragments already
  /// placed are keyed to it (RS group membership and Cauchy rows), and
  /// reshuffling groups mid-run would orphan every landed share.
  virtual void on_topology_change() {}

  static std::unique_ptr<RedundancyScheme> make(const RedundancyConfig& cfg,
                                                const mpi::Machine& machine);
};

/// The cross-failure-domain buddy mapping shared by the PARTNER scheme and
/// StagingArea::partner_of: the same node-local slot on the nearest node of
/// a *different cluster*, falling back to the nearest distinct node when the
/// machine is a single cluster. -1 on single-node topologies.
int cross_domain_partner(const mpi::Machine& machine, int rank);

}  // namespace spbc::ckpt
