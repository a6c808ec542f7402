#pragma once
// Asynchronous multi-level checkpoint staging: LOCAL -> redundancy -> PFS.
//
// SCR-style (Moody et al., SC'10) write path for the snapshots the checkpoint
// wave produces. In async mode a member's fiber is charged only the fast
// node-local write; a per-node background drainer then promotes the copy
//   LOCAL  --(scheme-driven fragment placement over net::Network)--> remote
//   remote --(per-node PFS flush queue)--------------------------->  PFS
// overlapped with the application's computation phases. What "remote
// redundancy" means is no longer staging's decision: a pluggable
// ckpt::RedundancyScheme (redundancy.hpp) — SINGLE (none), PARTNER (full
// buddy copy), Reed-Solomon group parity (GF(256) RS(k, m); XOR is
// RS(G-1, 1)) — produces placement plans the chain executes, answers
// recoverability queries, and plans restores (including event-driven group
// rebuilds whose reads ride the real network).
// Recovery reads from the cheapest live source, and when a failure destroyed
// every copy of the committed epoch it falls back to an older epoch (the
// Store's retention floor tracks the PFS frontier so the fallback target
// still exists).
//
// The drainer is event-driven rather than a parked fiber: the engine treats
// "parked fibers + empty event queue" as a deadlock, so a perpetual drainer
// fiber would either wedge run() or require shutdown plumbing through every
// respawn path. A promotion chain is a sequence of engine events gated by
// two serialized resources per node (sim::BandwidthQueue for the local
// device and the PFS ingest share) plus the network itself for fragment
// placements — which makes staging traffic contend with application messages
// on the sender's NIC, exactly the interference a real drain causes.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/redundancy.hpp"
#include "ckpt/store.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace spbc::mpi {
class Machine;
}

namespace spbc::ckpt {

/// Residency bits: which levels currently hold a copy of a snapshot. The
/// kAtPartner bit is synthesized from the fragment list: it means "at least
/// one live remote fragment" (a full copy under kPartner, a parity share
/// under kReedSolomon).
enum ResidencyBit : uint8_t {
  kAtLocal = 1u << 0,
  kAtPartner = 1u << 1,
  kAtPfs = 1u << 2,
};

/// How deep one epoch's write should reach. The control plane (see
/// core/control_plane.hpp) plans cheap LOCAL-only epochs frequently,
/// redundancy epochs at the node-loss cadence and PFS epochs rarely
/// (generalized Young/Daly per level); the default reaches everything the
/// configured chain covers. Honored by the async promotion chain.
struct LevelPlan {
  bool redundancy = true;
  bool pfs = true;
};

/// One multi-job PFS interference window (hostile workload matrix): during
/// [start, end) other jobs occupy (1 - available_frac) of the shared PFS
/// ingest bandwidth, so this job's flushes cost 1/available_frac times their
/// dedicated-bandwidth time. Phases are sampled piecewise-constant at flush
/// start (deterministic: the cost is a pure function of the start time).
struct PfsInterferencePhase {
  sim::Time start = 0;
  sim::Time end = 0;
  double available_frac = 1.0;  // clamped to (0, 1] at use
};

struct StagingConfig {
  /// kNone disables staging entirely (the store is free and reliable — the
  /// paper's measurement mode). Otherwise the deepest level of the chain.
  /// kLocal ends at the node-local write in both modes. Sync kPfs writes
  /// straight to the PFS and charges the fiber that whole write. Async
  /// kPartner and kPfs charge the fiber the LOCAL write, then place the
  /// scheme's fragments (and, at kPfs, flush to the PFS) in the background.
  /// Sync kPartner is refused.
  StorageLevel level = StorageLevel::kNone;
  /// Promote past LOCAL in the background (see `level`).
  bool async = false;
  StorageCostModel model{};
  /// What the remote-redundancy hop places (see redundancy.hpp).
  RedundancyConfig redundancy{};
  /// A second, stronger scheme attach() pre-builds so the control plane can
  /// escalate to it (e.g. XOR -> RS) without reconfiguring the machine.
  /// Epochs written while escalated pin the escalated scheme for their whole
  /// lifetime. Unset = no escalation.
  std::optional<RedundancyConfig> escalated{};
  /// Multi-job PFS interference windows (empty = dedicated PFS, costs
  /// byte-identical to the pre-hostile pipeline). Appended last so existing
  /// positional initializers stay valid.
  std::vector<PfsInterferencePhase> pfs_interference{};
};

struct StagingStats {
  uint64_t drains_started = 0;
  uint64_t partner_copies = 0;  // completed full-copy fragment placements
  uint64_t pfs_flushes = 0;     // completed -> PFS promotions
  uint64_t drains_aborted = 0;  // every copy died mid-promotion (chain lost)
  /// Promotion hops re-issued from a surviving level after their source (or
  /// destination) copy died mid-flight.
  uint64_t hop_retries = 0;
  /// Chains that stalled short of PFS with a live copy remaining: the
  /// per-snapshot retry budget ran out, or only parity fragments survive
  /// (flushable data requires a full copy; the snapshot stays recoverable
  /// through the scheme's rebuild).
  uint64_t retries_exhausted = 0;
  /// Per-level bytes-on-wire, post-reduction (what each device/link actually
  /// carried): LOCAL device writes, full-copy fragment bytes landed, PFS
  /// ingest. Rebuild reads are counted in rebuild_bytes_read below.
  uint64_t bytes_to_local = 0;
  uint64_t bytes_to_partner = 0;  // full-copy fragment bytes landed
  uint64_t bytes_to_pfs = 0;
  /// Parity fragment placements landed and their bytes (kReedSolomon).
  uint64_t parity_fragments = 0;
  uint64_t bytes_to_parity = 0;
  /// Fragments re-encoded onto a replacement host after the original host
  /// node died with a landed fragment (proactive re-protection).
  uint64_t reprotections = 0;
  /// Restore reads served per direct level; index = StorageLevel - kLocal.
  /// A read counts when it lands (one per chain element), also when another
  /// read's failure later abandoned its recovery pass: the read happened.
  std::array<uint64_t, 3> restores_by_level{};
  /// Rebuilds completed by a parity group (no PFS read; counted when the
  /// last fragment lands, like a direct read), the network bytes those
  /// rebuilds streamed, and rebuilds re-planned after a source node died
  /// mid-read.
  uint64_t rebuild_restores = 0;
  uint64_t rebuild_bytes_read = 0;
  uint64_t rebuild_retries = 0;
  /// Recoveries that had to fall below the committed epoch because every
  /// copy of it was destroyed.
  uint64_t epoch_fallbacks = 0;
  /// Background scrub: audit waves run, fragment digests probed, corrupt
  /// fragments detected (dropped dead), and repairs issued through the
  /// re-protection encode path.
  uint64_t scrub_waves = 0;
  uint64_t scrub_probes = 0;
  uint64_t scrubs_detected = 0;
  uint64_t scrubs_repaired = 0;
  /// Silent fragment losses injected (corrupt_fragment / corrupt_one_fragment).
  uint64_t silent_losses_injected = 0;
  /// Corrupt fragments the restore path's source checksum caught before any
  /// scrub probe reached them — dropped dead so a restore never serves
  /// silently-lost data.
  uint64_t corrupt_read_drops = 0;
  /// Multi-job PFS interference (hostile workload matrix): flushes whose
  /// start fell inside an interference phase, and the extra flush seconds
  /// the contended bandwidth cost relative to a dedicated PFS.
  uint64_t pfs_contended_flushes = 0;
  double pfs_interference_time = 0;
  /// High-water mark of flushes simultaneously queued on one node's PFS
  /// ingest share (merged by max, not sum): interference backs this up.
  uint64_t pfs_queue_depth_hwm = 0;
};

class StagingArea : public ResidencyView {
 public:
  /// A sync chain at kPartner is refused: sync mode writes LOCAL or PFS, and
  /// only the async chain places the scheme's fragments.
  explicit StagingArea(StagingConfig cfg);

  void attach(mpi::Machine& machine);

  bool enabled() const { return cfg_.level != StorageLevel::kNone; }
  bool async() const { return enabled() && cfg_.async; }
  const StagingConfig& config() const { return cfg_; }
  const RedundancyScheme& scheme() const { return *scheme_; }

  /// The scheme that encodes NEW epochs (escalation switches it; epochs
  /// already written keep the scheme that encoded them).
  const RedundancyScheme& active_scheme() const;
  bool scheme_escalated() const { return active_scheme_ != 0; }
  /// Serial context only: route future epochs through the escalated (or
  /// base) scheme. No-op unless attach() built one from `escalated`.
  void set_scheme_escalated(bool escalated);

  /// The buddy rank whose node hosts this rank's PARTNER copies: the same
  /// node-local slot on the nearest node of a *different cluster* (failure
  /// domain), falling back to the nearest distinct node when the machine is
  /// a single cluster. -1 on single-node topologies (no partner level).
  /// Resolved lazily because the cluster map is set after attach().
  int partner_of(int rank) const;

  /// Registers the snapshot of (rank, epoch) with the staging pipeline and
  /// returns the virtual-time cost to charge the writing fiber: the whole
  /// PFS write under sync kPfs, the LOCAL write otherwise (an async chain
  /// past LOCAL then runs in the background). 0 when disabled. The
  /// plan overload lets the control plane end this epoch's chain early
  /// (LOCAL-only / no-PFS epochs). `bytes` is the POST-reduction (encoded)
  /// size — every level of the chain ships the reduced bytes; `chain_base`
  /// is the epoch of the full capture anchoring this epoch's delta chain
  /// (ckpt::SaveInfo::chain_base; == epoch for a full capture), which makes
  /// recoverability and restore planning chain-aware.
  sim::Time write(int rank, uint64_t epoch, uint64_t bytes) {
    return write(rank, epoch, bytes, LevelPlan{});
  }
  sim::Time write(int rank, uint64_t epoch, uint64_t bytes, LevelPlan plan) {
    return write(rank, epoch, bytes, plan, epoch);
  }
  sim::Time write(int rank, uint64_t epoch, uint64_t bytes, LevelPlan plan,
                  uint64_t chain_base);

  /// Residency mask (ResidencyBit) of a snapshot; 0 = unknown or all copies
  /// lost. Always 0 when staging is disabled.
  uint8_t levels(int rank, uint64_t epoch) const;

  /// Can this snapshot back a restore? True unconditionally when staging is
  /// disabled (the store is then free and reliable, as in the paper's
  /// measurement mode). Scheme-aware: an RS snapshot with a dead LOCAL copy
  /// is recoverable while its group can rebuild it or the PFS holds it.
  /// Chain-aware: a delta epoch is recoverable only if EVERY element of its
  /// base-plus-deltas chain is — restore has to materialize all of them.
  bool recoverable(int rank, uint64_t epoch) const;

  /// The epochs a restore of (rank, epoch) must read, ascending: the chain
  /// base through `epoch` for a delta capture, just {epoch} for a full one
  /// (or when the entry is unknown — the caller's plan/recoverable queries
  /// report the failure).
  std::vector<uint64_t> restore_chain(int rank, uint64_t epoch) const;

  /// The scheme's cheapest live reconstruction of (rank, epoch).
  /// Source::kNone when staging is disabled or every copy is gone.
  RestorePlan plan_restore(int rank, uint64_t epoch) const;

  /// Reads every member's snapshot of `epoch` back for a restart: each
  /// element of each member's chain (the base and every delta of a delta
  /// epoch) from its own cheapest live source, all overlapped. Direct reads
  /// (LOCAL / remote copy / PFS) complete after their device time; RS
  /// rebuild reads are submitted to net::Network (they contend with real
  /// traffic) and checked against source-node storage generations, and a
  /// source death mid-read re-plans from the surviving fragments (bounded
  /// retries). Each read counts in the stats when it lands. `done(all_ok)`
  /// fires once, when the last read landed; all_ok=false means some element
  /// lost every reconstruction path and the caller must fall back an epoch.
  /// A disabled area or epoch 0 has nothing to read and calls `done(true)`
  /// at once.
  void execute_restore(const std::vector<int>& members, uint64_t epoch,
                       std::function<void(bool)> done);

  void note_epoch_fallback() { ++stats_rows_[0].epoch_fallbacks; }

  /// Drops corrupt-but-believed-live fragments of (rank, epoch) — and of
  /// every element of its delta chain — before a restore trusts them
  /// ("audit on read": the restore path checksums its source, so silent loss
  /// is discovered now at the latest and a restore never falsely succeeds
  /// from it). Recovery orchestration calls it before the belief-side
  /// recoverable()/plan_restore() queries.
  void audit_for_restore(int rank, uint64_t epoch);

  /// Silent-loss injection (tests/benches): mark a live fragment of
  /// (rank, epoch) corrupt — residency keeps believing it until an audit
  /// (scrub probe or restore-path read) discovers the loss. False when no
  /// such live, healthy fragment exists.
  bool corrupt_fragment(int rank, uint64_t epoch, size_t frag_idx);
  /// Deterministically corrupts one live fragment picked by `salt` over the
  /// row-ordered candidate list (serial context). False when none are live.
  bool corrupt_one_fragment(uint64_t salt);
  /// Fragments currently corrupt yet still believed live (undetected silent
  /// losses) — benches gate on this reaching 0.
  uint64_t corrupt_live_fragments() const;

  /// One background audit wave: every live fragment's digest streams from
  /// its host to the owner over the real network (it contends like any
  /// other transfer); a digest mismatch drops the fragment dead and
  /// re-encodes it through the re-protection path while the LOCAL data
  /// still exists. Under async staging, set_scrub() self-schedules a wave
  /// every `period` from the first staged write while the machine has live
  /// fibers; tests may also drive waves manually.
  void run_scrub_wave();
  /// Sets the audit cadence (0 = none) and an optional serial-context
  /// callback run at each scheduled wave — the control plane's periodic
  /// (time-based, not failure-driven) policy hook.
  void set_scrub(sim::Time period, std::function<void(sim::Time)> tick) {
    scrub_period_ = period;
    scrub_tick_ = std::move(tick);
  }
  sim::Time scrub_period() const { return scrub_period_; }

  /// Highest epoch of `rank` flushed to PFS (0 = none). Monotonic — PFS
  /// copies survive every failure — and therefore usable as the Store's
  /// retention floor: epochs at or above it must be kept for fallback.
  uint64_t pfs_frontier(int rank) const;

  /// A node's storage died with its ranks: LOCAL copies of its residents
  /// and fragments it hosted are lost, and promotion chains reading from
  /// them abort when their next hop fires. Entries that still hold a live
  /// LOCAL copy re-encode their lost fragments onto a replacement host
  /// (proactive re-protection) once the failure batch has landed.
  void invalidate_node(int node);

  /// Occupies the rank's node-local device with a background write of
  /// `bytes` (capture spill: in-flight captures pushed out of memory onto
  /// LOCAL storage — see SpbcConfig::capture_bytes_bound).
  void charge_local_spill(int rank, uint64_t bytes);

  /// Pruning hooks mirroring the Store's epoch bookkeeping.
  void drop_epochs_above(int rank, uint64_t epoch);
  void prune_epochs_below(int rank, uint64_t epoch);

  /// Migration flip (serial context): re-keys the rank's entry `from` to
  /// epoch number `to` so the snapshot carried across clusters lines up with
  /// the destination's epoch sequence. The PFS frontier follows the rename.
  void rename_epoch(int rank, uint64_t from, uint64_t to);

  /// The machine's PHYSICAL rank->node binding changed (spare hot-swap,
  /// shrunk restart, cluster migration): memoized scheme host choices
  /// re-derive; logical group structure stays pinned (see
  /// RedundancyScheme::on_topology_change).
  void on_topology_change();

  /// Merged view of the per-rank stat rows (rows keep concurrent shard
  /// events off shared counters). Returned by value: a snapshot.
  StagingStats stats() const;

  // ---- ResidencyView (consulted by the scheme) --------------------------
  bool has_local(int rank, uint64_t epoch) const override;
  bool has_pfs(int rank, uint64_t epoch) const override;
  const std::vector<Fragment>* fragments(int rank,
                                         uint64_t epoch) const override;
  uint64_t snapshot_bytes(int rank, uint64_t epoch) const override;
  bool node_in_service(int node) const override;

 private:
  struct Entry {
    uint64_t bytes = 0;        // encoded (post-reduction) size
    /// Full-capture epoch anchoring this epoch's delta chain (== the entry's
    /// own epoch for a full capture / with reduction off).
    uint64_t chain_base = 0;
    uint8_t levels = 0;        // kAtLocal / kAtPfs (kAtPartner synthesized)
    uint8_t retries_left = 3;  // per-snapshot budget for re-issued hops
    /// Index into {base, escalated} of the scheme that encoded this epoch;
    /// pinned at write() so liveness/restore/re-protection keep using it
    /// even after the control plane switches the active scheme.
    uint8_t scheme_idx = 0;
    /// The epoch's level plan (see LevelPlan): false ends the async chain
    /// before the redundancy hop / the PFS flush.
    bool want_redundancy = true;
    bool want_pfs = true;
    uint64_t chain_id = 0;     // stale-callback guard across rollback+rewrite
    std::vector<Fragment> fragments;
  };

  Entry* find(int rank, uint64_t epoch);
  const Entry* find(int rank, uint64_t epoch) const;
  /// Generation of a node's storage contents; bumped when the node dies. A
  /// promotion hop captures the source node's generation when it starts and
  /// aborts if it changed by the time the hop completes.
  uint64_t node_gen(int node) const;
  /// Runs the scheme's encode step and places the missing fragments; when
  /// nothing (more) is placeable the chain proceeds straight to the PFS
  /// flush. `then_flush=false` places fragments without continuing the chain
  /// (re-protection: the flush, if any, is already running independently).
  void start_protection(int rank, uint64_t epoch, bool then_flush);
  void place_fragment(int rank, uint64_t epoch, const PlacementStep& step,
                      std::shared_ptr<int> pending, bool then_flush);
  /// source_frag: index into the entry's fragment list whose copy feeds the
  /// flush, or -1 for the home node's LOCAL copy.
  void start_pfs_flush(int rank, uint64_t epoch, int from_node,
                       int source_frag);
  void finish_pfs(int rank, uint64_t epoch);
  /// A promotion hop found its source (or destination) copy dead: re-issue
  /// the rest of the chain from the cheapest level that still holds a copy
  /// (usually LOCAL), or count the chain aborted when nothing survives.
  void retry_from_surviving(int rank, uint64_t epoch);
  /// One chain element's read (see execute_restore).
  void do_restore(int rank, uint64_t epoch, std::function<void(bool)> done,
                  int budget);
  /// Counts a landed read under the source that served it.
  void note_restore(RestorePlan::Source source);
  /// One chain element's scheme-level recoverability (PFS copy or the
  /// encoding scheme can reconstruct it without one).
  bool element_recoverable(const Entry& e, int rank, uint64_t epoch) const;
  /// The scheme an entry was encoded under (Entry::scheme_idx).
  const RedundancyScheme& scheme_of(const Entry& e) const;
  /// One scrub digest probe of (rank, epoch)'s fragment `frag_idx`.
  void scrub_probe(int rank, uint64_t epoch, size_t frag_idx);
  /// Self-rescheduling wave driver; stops when the machine wound down (a
  /// forever-self-rescheduling event would keep Engine::run from ending).
  void schedule_scrub();

  /// The per-rank stat row a mutation goes to: shard-event code touches only
  /// its own rank's row; serial-context code may touch any (it runs alone).
  StagingStats& srow(int rank) {
    return stats_rows_[static_cast<size_t>(rank) < stats_rows_.size()
                           ? static_cast<size_t>(rank)
                           : 0];
  }

  StagingConfig cfg_;
  mpi::Machine* machine_ = nullptr;
  std::unique_ptr<RedundancyScheme> scheme_;
  /// The stronger scheme escalation switches to (cfg_.escalated).
  std::unique_ptr<RedundancyScheme> escalated_scheme_;
  /// 0 = base, 1 = escalated; written in serial context only, read by the
  /// write path after the serial barrier (the node_storage_gen_ idiom).
  uint8_t active_scheme_ = 0;
  /// Scrub cadence and per-wave callback (set_scrub).
  sim::Time scrub_period_ = 0;
  std::function<void(sim::Time)> scrub_tick_;
  /// Single-shot kick-off of the scrub cadence (first staged write).
  std::atomic<bool> scrub_started_{false};

  // Per-rank entry rows (epoch -> Entry): a row is mutated only from its
  // rank's shard (writes, drain-chain callbacks routed home) or from serial
  // recovery context, so concurrent shard threads never share one.
  std::vector<std::map<uint64_t, Entry>> entries_;
  std::vector<uint64_t> node_storage_gen_;  // bumped in serial context only
  // Dedups the per-rank kill notifications; atomic because scheme encodes on
  // any shard consult node_in_service() while a resident's write (its own
  // shard) clears the flag.
  std::vector<std::atomic<uint8_t>> node_down_;
  std::vector<sim::BandwidthQueue> node_local_q_;  // local snapshot device
  std::vector<sim::BandwidthQueue> node_pfs_q_;    // per-node PFS ingest share
  /// Flushes queued-or-running per node's PFS share (depth gauge; mutated
  /// from the owning ranks' shard — co-resident ranks share a shard under
  /// node colocation — or serial context).
  std::vector<int> pfs_q_depth_;
  /// Fraction of the PFS ingest bandwidth available to this job at `now`
  /// (pfs_interference phases; 1.0 outside every phase).
  double pfs_available_frac(sim::Time now) const;
  std::vector<uint64_t> pfs_frontier_;
  std::atomic<uint64_t> next_chain_id_{0};
  std::vector<StagingStats> stats_rows_ = std::vector<StagingStats>(1);
};

}  // namespace spbc::ckpt
