#pragma once
// SPBC — Scalable Pattern-Based Checkpointing (Section 4, Algorithm 1).
//
// Hierarchical protocol: coordinated checkpointing inside clusters, sender-
// based message logging between clusters, no delivery-event logging at all,
// and no inter-process synchronization during replay. Residual ANY_SOURCE
// non-determinism is handled by id-based matching (Section 4.3): the match
// predicate compares the (pattern_id, iteration_id) stamp carried by every
// message and reception request.
//
// Generalizations relative to the paper's pseudocode (documented in
// DESIGN.md):
//   * LR and LS scalars become received-windows (SeqWindow): a contiguous
//     prefix plus sparse out-of-order receipts, which stays correct when a
//     rendezvous payload completes behind newer eager traffic.
//   * Receiver-side duplicate filtering closes the race between a peer's
//     lastMessage reply and the recovering rank's re-execution.
//   * Overlapping failures of distinct clusters are supported; recovery of
//     one cluster re-triggers Rollbacks from other still-recovering
//     clusters, so replays invalidated by a second crash are re-issued.
//
//   * The intra-cluster checkpoint wave is marker-based (Chandy-Lamport
//     style) and never parks a member: each rank snapshots at its own
//     checkpoint boundary, stamps subsequent intra-cluster messages with the
//     new epoch (the piggybacked marker), keeps executing while peers catch
//     up, and the wave commits through an async binomial-tree completion
//     reduction (O(log k) deep; no member handles more than log2(k)
//     completion messages per epoch). Snapshot writes go through the
//     multi-level staging pipeline (ckpt/staging.hpp). Intra-
//     cluster messages that cross the cut are captured at the receiver and
//     re-delivered on restore. This replaces an earlier blocking drain
//     barrier whose concurrent waves could form a cross-cluster circular
//     wait through application halo dependencies under failure storms (the
//     paper does not specify the intra-cluster coordination algorithm).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ckpt/staging.hpp"
#include "ckpt/store.hpp"
#include "core/control_plane.hpp"
#include "core/replayer.hpp"
#include "core/sender_log.hpp"
#include "mpi/machine.hpp"
#include "mpi/protocol_hooks.hpp"

namespace spbc::core {

struct SpbcConfig {
  /// Take a coordinated checkpoint every N maybe_checkpoint() calls
  /// (iteration boundaries); 0 disables periodic checkpointing.
  uint64_t checkpoint_every = 0;

  /// Id-based matching (the A -> A' transformation). Disabling reproduces
  /// the plain Algorithm-1 protocol, which can mismatch after a failure in
  /// the Figure 2 scenario — tests rely on this switch.
  bool pattern_ids = true;

  /// Sender-side logging cost model: one memcpy of the payload into the log
  /// plus fixed bookkeeping. This is the failure-free overhead of Table 2.
  double log_memcpy_bw = 4.0e9;  // bytes/s
  sim::Time log_overhead = sim::nsec(120);

  /// Replay flow-control window (Section 5.2.2; the paper settled on 50).
  int replay_window = 50;

  /// Checkpoint storage level and cost model (kNone = free, matching the
  /// paper's measurement methodology).
  ckpt::StorageLevel storage = ckpt::StorageLevel::kNone;
  ckpt::StorageCostModel storage_model{};

  /// Multi-level staging (SCR-style; see ckpt/staging.hpp): charge the
  /// member's fiber only the fast LOCAL write and promote the snapshot
  /// LOCAL -> redundancy -> PFS in the background, overlapped with
  /// computation. When false, the write is synchronous at `storage` level.
  /// Ignored while storage == kNone.
  bool async_staging = false;

  /// What the staging chain's remote-redundancy hop places (see
  /// ckpt/redundancy.hpp): SINGLE (LOCAL only), PARTNER (full buddy copy,
  /// the default — the pre-refactor behavior), XOR group parity (~1/(G-1)
  /// of the copy bytes, tolerating any single in-group node loss), or
  /// Reed-Solomon RS(k, m) (GF(256) parity at (m/k)x the copy bytes,
  /// tolerating any m concurrent in-group node losses).
  ckpt::RedundancyConfig redundancy{};

  /// Virtual app-state bytes added to every snapshot's STAGED (and costed)
  /// size — the synthetic workloads carry token state vectors, while real
  /// HPC checkpoints run megabytes per process, and staging-level tradeoffs
  /// (LOCAL stall, redundancy bytes, PFS drain rate) only appear at real
  /// sizes. The pad inflates what the storage pipeline and the control
  /// plane's Daly terms see; the stored/replayed snapshot bytes are
  /// unchanged (nothing is materialized). Since nothing is materialized the
  /// pad is incompressible: it is added on top of the POST-reduction size.
  /// Workloads that want reduction-sensitive sizing use `state_model`
  /// instead.
  uint64_t snapshot_pad_bytes = 0;

  /// Checkpoint data reduction (ckpt/reduction.hpp; DESIGN.md §15):
  /// content-addressed block deltas between consecutive epochs and/or
  /// deterministic LZ/RLE compression, applied once in the store — staging
  /// fragments, PFS flushes and the control plane's Daly C_level terms all
  /// see the post-reduction bytes. Both off by default (the raw path is
  /// bit-for-bit the pre-reduction pipeline).
  ckpt::ReductionConfig reduction{};

  /// Per-rank synthetic evolving app state materialized into every snapshot
  /// (AMG/miniFE-style block-mutation model; ckpt/reduction.hpp). 0 bytes =
  /// off. Gives the reduction layer real deltas and real compressibility;
  /// restored runs regenerate identical state on any shard/thread layout.
  ckpt::StateModelConfig state_model{};

  /// Bound on a rank's live in-flight-capture bytes: when exceeded, the rank
  /// cuts a new epoch at its next checkpoint opportunity so the resulting
  /// commit can prune the retained captures (a cluster that never reaches
  /// its periodic boundary would otherwise retain them unboundedly — see
  /// ROADMAP). 0 disables the bound; the high-water mark is always tracked
  /// (ckpt::Store::capture_hwm_bytes).
  uint64_t capture_bytes_bound = 0;

  /// Extension: reclaim log entries once the destination cluster checkpoints
  /// (requires one notification per channel after each checkpoint wave).
  bool gc_logs = false;

  /// Self-tuning reliability control plane (core/control_plane.hpp): when
  /// enabled, the checkpoint trigger becomes time-based at the observed-MTBF
  /// Young/Daly interval, per-epoch level plans pace the redundancy hop and
  /// the PFS flush, a background scrub wave audits staged fragments for
  /// silent loss (control.scrub_period), and the redundancy scheme can
  /// escalate to control.escalated under correlated double losses. When
  /// disabled (the default), the static checkpoint_every schedule and
  /// full-depth writes are bit-for-bit unchanged.
  ControlPlaneConfig control{};

  /// Multi-job PFS interference phases (hostile workload matrix; DESIGN.md
  /// §16): windows during which other jobs occupy a fraction of the shared
  /// PFS ingest bandwidth, stretching this job's flush costs. Empty (the
  /// default) keeps every flush cost byte-identical.
  std::vector<ckpt::PfsInterferencePhase> pfs_interference{};
};

class SpbcProtocol : public mpi::ProtocolHooks {
 public:
  explicit SpbcProtocol(SpbcConfig cfg = {});

  // ---- ProtocolHooks ---------------------------------------------------
  void attach(mpi::Machine& machine) override;
  void on_cluster_map(int nclusters) override;
  void stamp_envelope(mpi::Rank& sender, mpi::Envelope& env) override;
  sim::Time on_send(mpi::Rank& sender, const mpi::Envelope& env,
                    const mpi::Payload& payload) override;
  bool should_transmit(mpi::Rank& sender, const mpi::Envelope& env) override;
  void on_delivered(mpi::Rank& receiver, const mpi::Envelope& env,
                    const mpi::Payload& payload) override;
  bool pattern_matching_enabled() const override { return cfg_.pattern_ids; }
  bool maybe_checkpoint(mpi::Rank& rank) override;
  void on_failure_injected(int victim_rank, mpi::FailureKind kind) override;
  void on_failure(int victim_rank) override;
  void on_rank_killed(int rank) override;
  void on_control(mpi::Rank& receiver, const mpi::ControlMsg& msg) override;
  void on_rank_start(mpi::Rank& rank, bool restarted) override;

  // ---- introspection ----------------------------------------------------
  const SenderLog& log_of(int rank) const;
  SenderLog& log_of_mut(int rank);
  const Replayer& replayer_of(int rank) const;
  const ckpt::Store& store() const { return store_; }
  /// The rank's synthetic evolving state (empty when state_model is off):
  /// as of its latest cut, or as restored by its latest rollback.
  const std::vector<unsigned char>& synthetic_state(int rank) const {
    return synth_state_[static_cast<size_t>(rank)];
  }
  const ckpt::StagingArea& staging() const { return staging_; }
  /// Mutable staging access for fault injection (silent-loss benches/tests
  /// corrupt fragments from serial events) and manual scrub waves.
  ckpt::StagingArea& staging_mut() { return staging_; }
  const ControlPlane& control_plane() const { return control_; }
  const SpbcConfig& config() const { return cfg_; }
  /// An online repartition bridge is between announce and flip (DESIGN.md
  /// §14): one colocation unit is being walked to a new cluster.
  bool migration_active() const { return migration_.active; }
  uint64_t checkpoints_taken() const { return store_.snapshots_taken(); }
  uint64_t rollbacks() const { return rollbacks_; }
  /// Staging residency mask (ckpt::ResidencyBit) of this rank's snapshot at
  /// the moment its epoch committed — the level redundancy the commit was
  /// actually backed by (0 when staging is off).
  uint8_t commit_levels(int rank) const;
  /// Waves triggered by the capture-bytes bound rather than the periodic
  /// schedule or a peer marker.
  uint64_t capture_forced_waves() const {
    return capture_forced_waves_.load(std::memory_order_relaxed);
  }
  /// Last checkpoint epoch whose wave fully committed (every member
  /// snapshotted and drained its pre-cut intra-cluster sends). Recovery
  /// restores this epoch.
  uint64_t committed_epoch(int cluster) const;
  /// Epoch of this rank's most recent local snapshot (>= its cluster's
  /// committed epoch while a wave is in flight).
  uint64_t snapshot_epoch(int rank) const;

  /// Starts a checkpoint wave from the caller (fiber context) regardless of
  /// the periodic schedule: the caller snapshots immediately; its markers
  /// make every cluster peer join the wave at its next maybe_checkpoint()
  /// call (peers running with checkpoint_every=0 included). The epoch
  /// commits — i.e. becomes the restore target — once every member has
  /// joined and drained, so peers must keep reaching checkpoint
  /// opportunities for the forced snapshot to become restorable.
  void checkpoint_now(mpi::Rank& rank);

  /// The facade's trigger query (spbc_need_checkpoint): answers exactly the
  /// question maybe_checkpoint() asks — the §13 control plane's time-based
  /// boundary when enabled, the static every-N schedule otherwise, OR a
  /// cluster peer's wave marker running ahead — WITHOUT cutting an epoch.
  /// Counts the call as a checkpoint opportunity like maybe_checkpoint()
  /// does, so facade-driven apps pace the periodic schedule identically.
  bool need_checkpoint(mpi::Rank& rank);

  /// Per-rank state of the four-call facade (core/facade.hpp). `regions` is
  /// the committed named-region map embedded in every snapshot via the app
  /// state handlers; `staged` holds the open session's routed writes until
  /// spbc_complete(valid=1) promotes them. Reset (session aborted) on
  /// rollback: a torn session must never leak into the restored epoch.
  struct FacadeState {
    bool in_session = false;
    bool restart_loaded = false;  // this incarnation pulled its restart state
    uint64_t sessions = 0;    // spbc_start calls that opened a session
    uint64_t completes = 0;   // spbc_complete(valid=1) commits
    std::map<std::string, std::vector<unsigned char>> staged;
    std::map<std::string, std::vector<unsigned char>> regions;
  };
  FacadeState& facade_state(int rank) {
    return facade_[static_cast<size_t>(rank)];
  }

 protected:
  /// HydEE overrides this to install its coordinator gate on each replayer.
  virtual Replayer::Gate make_gate(int /*rank*/) { return nullptr; }

  /// HydEE overrides: called when a replayed message has been delivered.
  virtual void on_replay_delivered(const mpi::Envelope& /*env*/) {}

  mpi::Machine* machine_ = nullptr;
  SpbcConfig cfg_;

 private:
  struct CkptLocal {
    uint64_t calls = 0;       // maybe_checkpoint() invocations (checkpointed)
    uint64_t epoch = 0;       // last epoch this rank knows committed
    uint64_t snap_epoch = 0;  // last epoch this rank snapshotted (>= epoch);
                              // the stamp carried by its outgoing envelopes
    // Highest epoch whose kCkptComplete this member has sent (transient;
    // reset to the restored epoch on rollback). A drain at time T covers
    // every epoch cut before T, so one watcher firing can report several.
    uint64_t complete_sent = 0;
    // Highest epoch announced by a cluster peer's kCkptMarker (transient).
    // When it runs ahead of snap_epoch, this member joins the wave at its
    // next maybe_checkpoint() call — the application-level analogue of
    // "snapshot on first marker receipt": the marker cannot interrupt the
    // app mid-iteration, but the next checkpoint opportunity is the first
    // point where an app-consistent local snapshot exists.
    uint64_t wave_seen = 0;
    // Highest epoch whose marker this member has flooded over the binomial
    // tree (transient; only used under MachineConfig::tree_ckpt_markers).
    // The >= guard makes each member forward a wave's marker at most once,
    // bounding dissemination at O(members) messages per wave instead of the
    // all-to-all broadcast's O(members^2).
    uint64_t marker_fwd = 0;
    // Binomial-tree commit reduction (transient, cleared on rollback): per
    // epoch, the member ranks covered by aggregates received from this
    // member's tree children. The aggregate (children + self) is forwarded
    // to the tree parent once this member's own drain reached the epoch and
    // every child subtree reported; a full aggregate at the tree root (the
    // wave root) commits the epoch. Replaces the flat member->root
    // reduction: the commit path is O(log k) hops deep and no member
    // handles more than log2(k) messages per epoch.
    //
    // Under gc_logs the aggregate also carries, per covered member, the
    // inter-cluster received-windows that member froze at its cut (encoded
    // words, piggybacked on kCkptComplete). The windows therefore live only
    // inside the in-flight wave state and on the wire — no per-(rank, epoch)
    // map is frozen in a side table until commit (see ROADMAP).
    struct TreeAgg {
      std::set<int> covered;
      bool self_done = false;
      bool sent = false;
      std::map<int, std::vector<uint64_t>> windows;  // member -> encoded
    };
    std::map<uint64_t, TreeAgg> agg;
    // Staging residency of this rank's snapshot when its epoch committed.
    uint8_t commit_levels = 0;
    // When this member last cut an epoch (virtual time) — the control
    // plane's time-based trigger compares against it. Reset to the restore
    // time on rollback so the next cut comes one interval after restart.
    sim::Time last_cut = 0;
  };

  /// Per-cluster marker-wave state (event-context authoritative view).
  struct ClusterWave {
    uint64_t committed = 0;  // last epoch whose completion reduction finished
  };

  /// One online-repartition bridge (DESIGN.md §14), at most one in flight
  /// globally: the ranks of one colocation unit walking from cluster `from`
  /// to cluster `to`. Announced on a cadence tick once both clusters are
  /// quiescent; flipped on a later tick once the boundary epochs committed
  /// at full depth. Serial-context-written; shard events only read it.
  struct Migration {
    bool active = false;
    std::vector<int> ranks;   // the moving colocation unit's residents
    int unit = -1;            // physical node id (mpi::Machine::node_of)
    int from = -1;            // cluster A (source)
    int to = -1;              // cluster B (destination)
    uint64_t boundary_a = 0;  // first A epoch logged as if already flipped
    uint64_t pin_b = 0;       // B epoch the movers' snapshots renumber into
  };

  bool is_inter_cluster(const mpi::Envelope& env) const;
  bool is_migrating(int rank) const;
  /// No wave in flight and no member ahead of / behind the committed epoch.
  bool cluster_quiescent(int cluster) const;
  /// Self-rescheduling serial cadence tick for the streaming repartitioner
  /// (armed once from on_cluster_map when control.repartition_period > 0).
  void schedule_repartition();
  void repartition_tick();
  void try_announce_migration();
  void try_flip_migration();
  ClusterWave& wave_of(int cluster);
  void run_coordinated_checkpoint(mpi::Rank& rank);
  void arm_wave_completion(int member, uint64_t epoch);
  void try_forward_aggregate(int member, uint64_t epoch);
  void commit_epoch(int cluster, uint64_t epoch,
                    const std::map<int, std::vector<uint64_t>>& gc_windows);
  /// Picks the newest epoch every member can still restore (scanning down
  /// from `epoch_hint`), restores in-memory state, executes the staging
  /// restore plans (XOR rebuilds ride the network), and schedules the
  /// respawn. Re-enters itself one epoch lower when a rebuild's sources die
  /// mid-read and no reconstruction path remains.
  void select_and_restore(int cluster, std::vector<int> members,
                          sim::Time failure_time,
                          std::map<int, mpi::Rank::Progress> targets,
                          uint64_t epoch_hint);
  void restore_rank(int r, uint64_t epoch);
  void redeliver_captured(int r, uint64_t epoch);
  void send_rollbacks_from(int r, const std::set<int>& peers);
  std::set<int> rollback_peers_of(int r) const;
  /// Aggregated rollback announce (MachineConfig::aggregate_rollbacks): one
  /// kClusterRollback from the cluster leader to each rank in `targets`,
  /// carrying every member's restored windows for that destination.
  void send_cluster_rollback(int cluster, const std::vector<int>& members,
                             const std::vector<int>& targets);
  void handle_rollback(mpi::Rank& receiver, const mpi::ControlMsg& msg);
  void handle_cluster_rollback(mpi::Rank& receiver, const mpi::ControlMsg& msg);
  /// Tree-based wave-marker dissemination (MachineConfig::tree_ckpt_markers):
  /// forwards `epoch` to this member's binomial-tree neighbors, at most once
  /// per epoch. `learned_from` is the peer the marker arrived from (-1 when
  /// this member initiated the wave) and is skipped.
  void flood_wave_marker(int me, uint64_t epoch, int learned_from);
  void handle_last_message(mpi::Rank& receiver, const mpi::ControlMsg& msg);
  void gc_from_windows(int member, const std::vector<uint64_t>& blob);
  /// Capture-bound backstop after a commit's prune: when the retention
  /// floor (PFS frontier) lags and the rank's live captures still exceed
  /// the bound, spill the oldest ones to LOCAL storage instead of stalling
  /// reclamation.
  void maybe_spill_captures(int rank);

  ckpt::Store store_;
  ckpt::StagingArea staging_;
  ControlPlane control_;
  // Per-cluster: the last injected failure's storage survived (process-only
  // crash). Written at the crash instant (serial context), consulted by
  // on_rank_killed for the victim's kill (same serial event) and the
  // detection-time peer kills (a serial event too). Default: node loss.
  std::vector<uint8_t> storage_survives_;
  std::vector<SenderLog> logs_;
  std::vector<Replayer> replayers_;
  // Per-rank synthetic evolving app state (state_model.bytes > 0 only).
  // Mutated from the rank's own shard at its epoch cut, captured at offset 0
  // of the snapshot and read back from it on restore, so delta captures see
  // realistic block-level churn without a real application.
  std::vector<std::vector<unsigned char>> synth_state_;
  // Per-rank facade sessions/regions (only touched by facade-driven apps;
  // pattern-API apps never allocate region bytes). Sized in attach().
  std::vector<FacadeState> facade_;
  std::vector<CkptLocal> ckpt_;
  // Pre-sized by on_cluster_map (lazy map insertion would be a structural
  // race under the threaded shard executor). A cluster's wave cell is read
  // from its own shard and written there or in serial recovery context.
  std::vector<ClusterWave> waves_;
  std::set<int> recovering_clusters_;   // serial context only
  std::set<int> restart_pending_;       // serial context only
  uint64_t rollbacks_ = 0;              // serial context only
  // The (at most one) in-flight cluster migration and the per-cluster epochs
  // its bridge forces to full staging depth (and pins against pruning until
  // the flip). Written on serial cadence ticks; read by shard events — the
  // repartitioner therefore requires engine_threads <= 1.
  Migration migration_;
  std::map<int, uint64_t> forced_pfs_epoch_;
  bool repartition_armed_ = false;
  // Bumped from on_delivered on any shard (capture-bound pressure).
  std::atomic<uint64_t> capture_forced_waves_{0};
};

}  // namespace spbc::core
