#pragma once
// The Machine: one simulated cluster run.
//
// Owns the discrete-event engine, network, topology, all Ranks, the active
// fault-tolerance protocol, and checkpoint storage. Responsible for:
//   * launching one fiber per rank running the application main,
//   * transporting data (eager / rendezvous) and control messages,
//   * crash semantics: failure injection kills a rank's fiber and bumps its
//     incarnation; in-flight messages addressed to the old incarnation are
//     dropped (they were in the wire when the process died),
//   * respawning ranks from checkpoints during recovery,
//   * recording per-channel traffic (clustering tool input) and recovery
//     progress (rework-time measurement for Fig. 5/6).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/protocol_hooks.hpp"
#include "mpi/rank.hpp"
#include "mpi/traffic.hpp"
#include "mpi/types.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "sim/topology.hpp"
#include "util/pool.hpp"

namespace spbc::mpi {

struct MachineConfig {
  int nranks = 8;
  int ranks_per_node = 8;
  /// Hot-spare nodes appended after the compute nodes: idle hardware (NIC +
  /// node-local storage, no ranks) a permanent node loss swaps in. 0 keeps
  /// the machine byte-identical to the pre-elastic layout.
  int spare_nodes = 0;
  /// Severity of the two-argument inject_failure() overload. Elastic suites
  /// flip this to kNodePermanent to turn every scripted failure into a
  /// never-returning node loss without touching the injection sites.
  FailureKind default_failure_kind = FailureKind::kNodeLoss;
  net::NetworkParams net;
  uint64_t eager_threshold = 64 * 1024;  // bytes; above -> rendezvous
  sim::Time poll_overhead = sim::nsec(120);  // test/iprobe CPU cost
  // Section 7 extension (hybrid MPI+threads, MPI_THREAD_MULTIPLE): when
  // multiple threads of one process send over the same channel with distinct
  // tags, the per-channel total send order is lost but each (channel, tag)
  // sub-stream can stay deterministic. This switch moves sequence numbers,
  // received-windows, and replay ordering from (src,dst,comm) channels to
  // (src,dst,comm,tag) streams — the paper's proposed fix ("associate a
  // sequence number with each (channel,tag) tuple").
  bool seq_per_tag = false;
  // OS/system noise: each compute block is stretched by up to this fraction,
  // as a pure function of (seed, rank, op index) — identical when the block
  // is re-executed during recovery. Real clusters have this noise; it is
  // what makes processes wait on inter-cluster messages in failure-free
  // runs, and removing those waits is where SPBC's recovery speedup
  // (Fig. 5) comes from.
  double compute_noise_frac = 0.0;
  sim::Time failure_detection_delay = sim::msec(1.0);
  sim::Time restart_delay = sim::msec(5.0);  // process relaunch + ckpt read
  size_t fiber_stack_bytes = 256 * 1024;
  uint64_t seed = 1;
  bool record_send_trace = false;  // per-channel send hashes (determinism checks)
  bool abort_on_deadlock = true;
  // Table 1's 512-cluster row (pure message logging) intentionally violates
  // the one-cluster-per-node rule; benches flip this off for that row.
  bool enforce_node_colocation = true;
  // Scalable recovery announces. Algorithm 1 (lines 19-20) posts one
  // Rollback per (recovering rank, outside rank) pair — O(cluster x world)
  // control messages per failure, which is what capped MTBF ablations at a
  // few thousand ranks. When set, the recovering cluster's leader posts one
  // aggregated kClusterRollback per outside rank (members' windows gathered
  // at restore; almost every destination's entry list is empty) and peers
  // reply only toward members they actually hold received-windows for.
  // Off by default: the pairwise path is the paper's literal algorithm and
  // the pinned CI rows are recorded against its message timing.
  bool aggregate_rollbacks = false;
  // Scalable checkpoint-wave markers. The explicit "I snapshotted epoch E"
  // markers are an all-to-all broadcast within the cluster — O(members^2)
  // control messages per wave, the dominant traffic of the whole simulation
  // past a few thousand ranks (a coordinated wave's "cluster" is every
  // rank). When set, the marker floods over the same binomial tree the
  // wave's completion reduction uses: each member forwards a wave's epoch
  // to its tree neighbors at most once — O(members) messages, same
  // eventual-delivery guarantee (markers are a hint; nothing blocks on
  // them). Off by default for the same pinned-row reason as above.
  bool tree_ckpt_markers = false;
  // Sharded event engine (100k-rank ablations). 1 = legacy single event
  // queue, byte-identical to the pre-shard engine. Any other value keys the
  // engine by cluster (one logical shard per cluster, fixed by the workload)
  // and uses this many physical queues: 0 = one per cluster, N = at most N.
  // Event order is a function of the cluster map only — every engine_shards
  // != 1 setting produces the same trajectory. Requires set_cluster_of().
  int engine_shards = 1;
  // Worker threads for the sharded executor (conservative lookahead windows).
  // > 1 requires engine_shards != 1 and node-colocated clusters.
  int engine_threads = 1;
  // Straggler / slow-node skew (hostile workload matrix; DESIGN.md §16):
  // every compute block on a straggler node is stretched by straggler_factor.
  // Straggler nodes are picked deterministically from straggler_seed — a
  // straggler_frac fraction of the compute nodes — so every shard/thread
  // layout and every re-execution sees the same slow set. The extra time is
  // accounted in RankProfile::time_straggler_stall. factor <= 1 or frac <= 0
  // disables the shape and keeps compute() byte-identical.
  double straggler_factor = 1.0;
  double straggler_frac = 0.0;
  uint64_t straggler_seed = 0;
};

/// Outcome of a Machine::run().
struct RunResult {
  sim::Time finish_time = 0;
  bool deadlocked = false;
  bool completed = false;  // all rank mains returned
};

/// Recovery progress record for one injected failure.
struct RecoveryRecord {
  int failed_cluster = -1;
  sim::Time failure_time = 0;
  sim::Time restart_time = 0;   // fibers respawned (ckpt restored)
  sim::Time caught_up_time = 0;  // last recovering rank reached pre-failure op
  sim::Time checkpoint_time = 0;  // virtual time of the restored checkpoint
  // Per failed rank: pre-failure progress (ops + partial compute block).
  std::map<int, Rank::Progress> target_ops;
  std::map<int, sim::Time> catch_up;  // per failed rank: time it caught up
  bool complete() const { return !target_ops.empty() && catch_up.size() == target_ops.size(); }
  /// Rework time: rollback to full catch-up of the slowest rank.
  sim::Time rework() const { return caught_up_time - restart_time; }
};

class Machine {
 public:
  using AppFn = std::function<void(Rank&)>;

  Machine(MachineConfig cfg, std::unique_ptr<ProtocolHooks> protocol);
  ~Machine();

  // ---- configuration / wiring ----------------------------------------
  const MachineConfig& config() const { return cfg_; }
  sim::Engine& engine() { return engine_; }
  net::Network& network() { return net_; }
  const sim::Topology& topology() const { return topo_; }
  ProtocolHooks& protocol() { return *protocol_; }
  const Comm& world() const { return world_; }

  int nranks() const { return cfg_.nranks; }
  Rank& rank(int r);

  /// PHYSICAL node currently hosting `rank`. Starts as the topology's block
  /// layout; spare-node hot-swap and shrunk restart rebind it. Everything
  /// that models hardware (NIC routing, storage residency, failure blast
  /// radius) must use this, not Topology::node_of — the latter stays the
  /// LOGICAL layout that redundancy-group/slot arithmetic is keyed by.
  int node_of(int rank) const {
    return node_of_rank_[static_cast<size_t>(rank)];
  }
  /// Spares still in the pool (not yet swapped in).
  int spares_available() const { return static_cast<int>(spare_pool_.size()); }
  /// PHYSICAL node `node` is a straggler (MachineConfig::straggler_*): its
  /// compute blocks run straggler_factor slower. Fixed at construction —
  /// deterministic across shard/thread layouts and re-executions.
  bool straggler_node(int node) const {
    return straggler_node_[static_cast<size_t>(node)] != 0;
  }
  /// A permanently-dead node left service (retire_node).
  bool node_retired(int node) const {
    return node_retired_[static_cast<size_t>(node)] != 0;
  }
  /// Rank is permanently dead and awaiting its elastic rebind+respawn: sends
  /// toward it complete as no-ops instead of spinning retries at a rendezvous
  /// that will never answer. Cleared when the rank respawns.
  bool tombstoned(int rank) const {
    return tombstoned_[static_cast<size_t>(rank)] != 0;
  }

  /// Serial context: a node died permanently. Its resident ranks are
  /// tombstoned and rebound — all onto the next pooled spare (hot-swap), or,
  /// with the pool empty, onto the least-loaded surviving node (shrunk
  /// restart; same-cluster nodes preferred to preserve colocation). The
  /// caller must have invalidated the OLD node's staged copies first: after
  /// this call the residents' storage residency is computed against the new
  /// binding.
  void retire_node(int node);

  /// Serial context: move `rank` to cluster `cluster` (streaming
  /// repartitioner flip). Event routing keeps the rank's original shard —
  /// the shard map is frozen at set_cluster_of so fixed-seed runs stay
  /// bit-identical across layouts while membership changes.
  void migrate_rank(int rank, int cluster);

  uint64_t spare_swaps() const { return spare_swaps_; }
  uint64_t shrink_restarts() const { return shrink_restarts_; }
  uint64_t tombstone_drops() const {
    return tombstone_drops_.load(std::memory_order_relaxed);
  }

  /// Cluster mapping used by hierarchical protocols; identity (one cluster)
  /// when unset. Must be set before launch().
  void set_cluster_of(std::vector<int> cluster_of);
  int cluster_of(int rank) const;
  int nclusters() const { return nclusters_; }
  /// Ascending world ranks of `cluster`. The list is kept up to date by
  /// set_cluster_of and migrate_rank, which invalidate held references'
  /// contents: copy it to keep it across a migration.
  const std::vector<int>& ranks_in_cluster(int cluster) const;

  // ---- execution -------------------------------------------------------
  /// Spawns all rank fibers running `app`.
  void launch(AppFn app);

  /// Runs the simulation to completion. Returns timing + deadlock status.
  RunResult run();

  /// Schedules a crash of `victim_rank`'s cluster at virtual time t. The
  /// two-argument form is a node loss (processes and node-local storage);
  /// the kind overload can inject process-only failures whose node storage
  /// survives the restart.
  void inject_failure(sim::Time t, int victim_rank);
  void inject_failure(sim::Time t, int victim_rank, FailureKind kind);

  // ---- transport (called by Rank) --------------------------------------
  /// Data send; chooses eager or rendezvous by payload size. `on_complete`
  /// fires when the send buffer is reusable (MPI completion semantics).
  void transport_send(Rank& sender, const Envelope& env, Payload payload,
                      std::function<void()> on_complete);

  /// Protocol control message (Rollback, lastMessage, checkpoint coordination,
  /// HydEE grants...). Small fixed wire size.
  void send_control(int src, int dst, ControlMsg msg);

  /// Replay path: re-sends a logged message (event context, no fiber).
  /// `on_complete` fires when the replayed send finishes injecting.
  void replay_send(int src, const Envelope& env, const Payload& payload,
                   std::function<void()> on_complete);

  // ---- crash / recovery mechanics (called by protocols) ----------------
  uint32_t incarnation(int rank) const { return incarnation_[rank]; }

  /// Kills a rank's fiber now (stack unwinds via FiberKilled) and bumps its
  /// incarnation so in-flight messages to it are dropped.
  void kill_rank(int rank);

  /// Respawns a rank's fiber. With `restarted=true` the app main sees
  /// restarted()==true and pulls its state back via restore_app_state();
  /// with false it re-runs from the initial state (rollback to sigma_0 when
  /// no checkpoint exists yet). Runtime state must have been restored by the
  /// caller beforehand.
  void respawn_rank(int rank, bool restarted);

  /// Checkpointed application-state bytes parked between restore (event
  /// context) and the respawned app main pulling them (fiber context).
  void set_pending_app_state(int rank, std::vector<unsigned char> bytes);
  std::vector<unsigned char> take_pending_app_state(int rank);

  /// Removes and returns pending rendezvous sends from `src` to `dst` whose
  /// handshake died with a previous incarnation of `dst` (the peer crashed
  /// mid-rendezvous, so its CTS will never come). The protocol completes
  /// their application requests when the corresponding logged messages
  /// finish replaying. Handshakes addressed to the CURRENT incarnation are
  /// left alone: a Rollback can also be a re-announcement during overlapping
  /// recoveries, and orphaning a live handshake would park the sender on a
  /// CTS the receiver still owes it.
  struct OrphanSend {
    Envelope env;
    std::function<void()> on_complete;
  };
  std::vector<OrphanSend> take_rendezvous_to(int dst, int src);
  /// Batched take_rendezvous_to: one pass over `src`'s pending rendezvous
  /// handshakes removes every one addressed to a dead incarnation of a
  /// destination satisfying `pred`, grouped by destination (aggregated
  /// rollbacks orphan toward a whole recovering cluster at once).
  std::map<int, std::vector<OrphanSend>> take_rendezvous_to_if(
      const std::function<bool(int)>& pred, int src);

  bool rank_alive(int rank) const { return alive_[rank]; }

  // ---- intra-cluster in-flight tracking (checkpoint-wave completion) ----
  /// Count of this rank's in-flight intra-cluster data transfers. A
  /// rendezvous send counts from RTS until its payload lands (or a
  /// discard-CTS completes it), so the count covers every message that could
  /// cross a checkpoint cut.
  uint64_t outstanding_intra_sends(int rank) const { return intra_outstanding_[rank]; }

  /// Registers a one-shot callback fired when `rank`'s intra-cluster
  /// in-flight count reaches zero (immediately if already drained). The
  /// marker-based checkpoint wave uses this to emit its completion message
  /// without parking the fiber. Watchers are dropped when the rank is killed.
  void notify_when_intra_drained(int rank, std::function<void()> fn);

  // ---- measurement -------------------------------------------------------
  /// Per-channel world-level traffic matrix (bytes), for the clustering tool.
  /// Flat open-addressed storage — record_traffic runs on every send.
  const TrafficMatrix& traffic() const { return traffic_; }

  /// Compatibility view of traffic() as an ordered map (built on demand).
  std::map<std::pair<int, int>, uint64_t> traffic_bytes() const {
    return traffic_.as_map();
  }

  /// Per-channel send trace hashes (determinism checker). Stored in
  /// per-source rows (each owned by the source rank's shard); merged into
  /// one ordered map on demand — ChannelKey sorts by src first, so the merge
  /// is a concatenation.
  std::map<ChannelKey, std::vector<uint64_t>> send_trace() const;

  const std::vector<RecoveryRecord>& recoveries() const { return recoveries_; }
  RecoveryRecord* active_recovery(int cluster);

  /// Called by protocols when a cluster's recovery begins (fibers respawned).
  void begin_recovery_record(int cluster, sim::Time failure_time,
                             sim::Time checkpoint_time,
                             std::map<int, Rank::Progress> target_ops);
  /// Called from rank fibers (via op-counter watch) when caught up.
  void note_catch_up(int rank);

  /// Total messages dropped by the incarnation filter (in flight at crash).
  uint64_t dropped_in_flight() const {
    return dropped_in_flight_.load(std::memory_order_relaxed);
  }

  /// Diagnostics: envelopes of sends parked in the rendezvous handshake.
  std::vector<Envelope> pending_rendezvous_envelopes() const;

  // Debug-only tag (never hashed into traces or used for ordering), so a
  // relaxed counter keeps it unique across shard threads.
  uint64_t fresh_uid() { return uid_.fetch_add(1, std::memory_order_relaxed) + 1; }

 private:
  void deliver_data(int dst, Envelope env, Payload payload, bool payload_ready,
                    uint64_t sender_req);
  void handle_control(int dst, const ControlMsg& msg);
  void record_traffic(const Envelope& env);
  void note_intra_send_landed(int src);
  void rebuild_members();
  /// Event-routing shard of a rank: the cluster map frozen at
  /// set_cluster_of (migrations must not move a rank's events between
  /// shards mid-run — event order would depend on migration timing).
  int shard_of(int rank) const {
    return shard_of_rank_.empty() ? cluster_of(rank)
                                  : shard_of_rank_[static_cast<size_t>(rank)];
  }

  MachineConfig cfg_;
  sim::Engine engine_;
  sim::Topology topo_;
  net::Network net_;
  std::unique_ptr<ProtocolHooks> protocol_;
  Comm world_;

  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<uint32_t> incarnation_;
  std::vector<bool> alive_;
  std::vector<uint64_t> intra_outstanding_;
  std::vector<std::vector<std::function<void()>>> intra_drain_watchers_;
  std::vector<int> cluster_of_;
  int nclusters_ = 1;
  // cluster -> ascending member ranks, mirroring cluster_of_.
  std::vector<std::vector<int>> members_;
  // Frozen rank -> shard snapshot (see shard_of); empty until set_cluster_of.
  std::vector<int> shard_of_rank_;
  // Dynamic rank -> physical node binding (see node_of).
  std::vector<int> node_of_rank_;
  // Per-physical-node straggler flag (see straggler_node).
  std::vector<uint8_t> straggler_node_;
  // Spare nodes not yet swapped in, FIFO (ids in [topo.nodes(), total)).
  std::vector<int> spare_pool_;
  std::vector<uint8_t> node_retired_;  // indexed by node id
  std::vector<uint8_t> tombstoned_;    // indexed by rank
  uint64_t spare_swaps_ = 0;           // serial context only
  uint64_t shrink_restarts_ = 0;       // serial context only
  std::atomic<uint64_t> tombstone_drops_{0};

  AppFn app_;

  // Rendezvous bookkeeping at the sender: req id -> (env, payload, completion).
  // One row per source rank: transport_send fills it from the sender's fiber
  // and the CTS drains it at the sender again, so a row is only ever touched
  // by its source rank's shard (kill-time purges run in serial context).
  struct PendingRendezvous {
    Envelope env;
    Payload payload;
    std::function<void()> on_complete;
    uint32_t dst_inc = 0;  // destination incarnation the RTS was addressed to
  };
  std::vector<std::map<uint64_t, PendingRendezvous>> rendezvous_;
  std::vector<uint64_t> next_rendezvous_id_;  // per source rank

  // Pooled per-message blocks: one MsgNode per in-flight data message (eager,
  // rendezvous payload leg, replay) and one CtrlNode per control message.
  // Arrival lambdas capture {this, node*} — 16 bytes, inside std::function's
  // small-buffer — so the steady-state transport performs no allocation.
  struct MsgNode {
    Envelope env;
    Payload payload;
    std::function<void()> on_complete;  // replay path only
    uint32_t inc = 0;      // destination incarnation at submit
    uint32_t src_inc = 0;  // sender incarnation at submit
    bool intra = false;
    uint64_t req = 0;  // rendezvous request id (payload leg)
  };
  struct CtrlNode {
    ControlMsg msg;
    uint32_t inc = 0;
    int dst = 0;
  };
  util::ObjectPool<MsgNode> msg_pool_;
  util::ObjectPool<CtrlNode> ctrl_pool_;

  TrafficMatrix traffic_;
  // Per-source send-trace rows (see send_trace()).
  std::vector<std::map<ChannelKey, std::vector<uint64_t>>> send_trace_rows_;
  std::vector<RecoveryRecord> recoveries_;
  // cluster -> index into recoveries_, -1 = none. Sized at set_cluster_of;
  // slot c is written from serial context or cluster c's own shard only.
  std::vector<ptrdiff_t> active_recovery_idx_;

  // Checkpointed app state parked between restore and respawn, one slot per
  // rank (empty = none).
  std::vector<std::vector<unsigned char>> pending_app_state_;

  std::atomic<uint64_t> uid_{0};
  std::atomic<uint64_t> dropped_in_flight_{0};
};

}  // namespace spbc::mpi
