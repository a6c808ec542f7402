#pragma once
// Per-process MPI runtime: the object workload code programs against.
//
// One Rank exists per simulated MPI process. Application main functions
// receive a Rank& and use its point-to-point operations, collectives (see
// collectives.hpp), pattern API (Section 5.1), compute() to model local work,
// and maybe_checkpoint() at iteration boundaries.
//
// The Rank also carries the runtime state a real MPI library would hold —
// per-channel send sequence numbers, received-windows, the matching engine,
// pattern counters — all of which is serialized into checkpoints so recovery
// restores an exact MPI-layer state.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/matching.hpp"
#include "mpi/request.hpp"
#include "mpi/stream_table.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace spbc::mpi {

class Machine;

/// Pattern API state (Section 5.1): per-pattern iteration counters plus the
/// currently active pattern. DECLARE_PATTERN / BEGIN_ITERATION /
/// END_ITERATION are purely local (no communication).
struct PatternBook {
  std::vector<uint32_t> iteration;  // per declared pattern, index 0 = default
  uint32_t active = 0;              // active pattern id (0 = default)
  // Next declaration slot for this incarnation. Pattern declarations happen
  // in program order, so a restarted rank re-declaring its patterns must be
  // handed the same ids it held before the rollback — declarations reuse
  // restored slots instead of appending.
  uint32_t next_declare = 1;

  PatternBook() : iteration(1, 0) {}

  PatternTag current() const {
    return PatternTag{active, active == 0 ? 0u : iteration[active]};
  }

  void serialize(util::ByteWriter& w) const {
    w.put_vector(iteration);
    w.put<uint32_t>(active);
  }
  void restore(util::ByteReader& r) {
    iteration = r.get_vector<uint32_t>();
    active = r.get<uint32_t>();
    next_declare = 1;  // the restarted main re-declares from the top
  }
};

/// Per-rank cumulative profile (IPM-style; drives the Fig. 5 analysis of
/// comm/compute ratios and the clustering tool's traffic matrix).
struct RankProfile {
  sim::Time time_compute = 0;
  sim::Time time_mpi = 0;  // blocked or in MPI calls
  // Extra compute time from running on a straggler node
  // (MachineConfig::straggler_factor); included in time_compute.
  sim::Time time_straggler_stall = 0;
  uint64_t sends = 0;
  uint64_t recvs = 0;
  uint64_t bytes_sent_intra_cluster = 0;
  uint64_t bytes_sent_inter_cluster = 0;
  uint64_t bytes_logged = 0;
  uint64_t suppressed_sends = 0;   // LS suppression hits during recovery
  uint64_t duplicate_drops = 0;    // receiver-side dup filter hits
};

class Rank {
 public:
  Rank(Machine& machine, int world_rank);

  // Non-copyable: identity object owned by the Machine.
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  // ---- identity -------------------------------------------------------
  int rank() const { return world_rank_; }
  int nranks() const;
  const Comm& world() const;
  Machine& machine() { return machine_; }
  sim::Time now() const;

  // ---- point-to-point (Section 3.2 semantics) -------------------------
  Request isend(int dst, int tag, Payload payload, const Comm& comm);
  Request irecv(int src, int tag, const Comm& comm);
  void send(int dst, int tag, Payload payload, const Comm& comm);
  RecvResult recv(int src, int tag, const Comm& comm);

  void wait(Request& req);
  /// Returns the index of a completed request (non-deterministic completion
  /// function — one of the two non-determinism sources in Section 3.2).
  int waitany(std::vector<Request>& reqs);
  void waitall(std::vector<Request>& reqs);
  bool test(Request& req);

  bool iprobe(int src, int tag, const Comm& comm, Status* status);
  Status probe(int src, int tag, const Comm& comm);

  // ---- computation model ---------------------------------------------
  /// Models `seconds` of local computation (advances virtual time).
  void compute(sim::Time seconds);

  // ---- pattern API (Section 5.1) --------------------------------------
  /// pattern_id DECLARE_PATTERN(void)
  uint32_t declare_pattern();
  /// BEGIN_ITERATION(pattern_id)
  void begin_iteration(uint32_t pattern_id);
  /// END_ITERATION(pattern_id)
  void end_iteration(uint32_t pattern_id);
  PatternTag active_pattern() const { return patterns_.current(); }

  // ---- checkpoint / restart -------------------------------------------
  /// Registers the application's state (de)serializers. Must be called
  /// before the first maybe_checkpoint().
  void set_state_handlers(std::function<void(util::ByteWriter&)> save,
                          std::function<void(util::ByteReader&)> load);

  /// Checkpoint opportunity at an iteration boundary; the active protocol
  /// decides whether to take one (blocking; cluster-coordinated).
  bool maybe_checkpoint();

  /// True when this incarnation was restarted from a checkpoint.
  bool restarted() const { return restarted_; }

  /// After a restart: feeds the checkpointed application state back through
  /// the registered load handler. Call after set_state_handlers().
  void restore_app_state();

  // ---- misc -----------------------------------------------------------
  util::Pcg32& rng() { return rng_; }
  const RankProfile& profile() const { return profile_; }
  RankProfile& profile_mut() { return profile_; }

  /// Monotonic logical progress counter: increments on every MPI operation
  /// and compute() call; recovery is "caught up" when it reaches its
  /// pre-failure value. Deterministic across re-execution.
  uint64_t op_counter() const { return op_counter_; }

  /// Sub-op progress for rework measurement: a failure usually lands in the
  /// middle of a compute block, and the time already spent in that block is
  /// lost work the re-execution must redo. Tracking only whole ops would
  /// under-count rework by up to one compute block.
  struct Progress {
    uint64_t ops = 0;
    sim::Time compute_elapsed = 0;  // inside the current compute block
  };
  Progress progress_now() const;
  /// Captures progress at the moment of death (called by kill_rank before
  /// the fiber unwinds, so the victim's partial compute is measured at the
  /// crash, not at detection).
  void freeze_progress();
  const Progress* frozen_progress() const {
    return has_frozen_ ? &frozen_ : nullptr;
  }

  // ================= runtime-internal interface ========================
  // Used by Machine and protocol implementations; not by workloads.

  struct ChannelSendState {
    uint64_t next_seq = 0;       // last assigned seqnum (first message gets 1)
    SeqWindow peer_received;     // LS generalization: what dst already holds
    uint64_t replay_pending = 0;  // active replays gate new sends (FIFO)
  };

  /// Maps a message tag to its stream id under the active mode.
  int stream_of(int tag) const;

  /// Sender-side state for stream (me -> dst, ctx, stream_of(tag)), created
  /// on first use. Creating any stream may move every stream's state: do
  /// not hold the reference across a park or another stream lookup.
  ChannelSendState& send_state(int dst, int ctx, int tag = 0);

  /// Recovery: wipes the LS-suppression windows of every stream toward
  /// `peer`. A lastMessage reply (and a Rollback announce) enumerates the
  /// peer's COMPLETE receive state, so streams absent from it — e.g. after
  /// the peer rolled back to the initial state — must not keep stale
  /// suppression, or re-executed sends the peer no longer holds would be
  /// skipped and lost.
  void clear_peer_received(int peer);
  /// Batched clear_peer_received: one pass over the send-state map wipes
  /// suppression for every peer satisfying `pred` (a Rollback announce
  /// clears a whole recovering cluster; per-peer calls would rescan the map
  /// once per member).
  void clear_peer_received_if(const std::function<bool(int)>& pred);
  /// Receiver-side received-window for stream (src -> me, ctx,
  /// stream_of(tag)), created on first use; same reference rule as
  /// send_state.
  SeqWindow& recv_window(int src, int ctx, int tag = 0);

  MatchEngine& match_engine() { return match_; }
  PatternBook& patterns() { return patterns_; }

  /// Calls fn(const StreamKey&, const SeqWindow&) for every received-window
  /// in StreamKey order; fn must not create streams.
  template <class Fn>
  void for_each_recv_window(Fn&& fn) const {
    streams_.for_each_sorted([&fn](const StreamKey& key, const Stream& st) {
      if (st.has_recv) fn(key, st.recv);
    });
  }

  /// Delivery path (event context): an envelope reached this rank's MPI
  /// layer. `payload_ready` is false for rendezvous RTS.
  void deliver_envelope(const Envelope& env, Payload payload, bool payload_ready,
                        uint64_t sender_req);
  /// Rendezvous payload completion (event context).
  void deliver_payload(const Envelope& env, Payload payload, uint64_t sender_req);

  /// Marks `seq` received on (src,ctx) and runs protocol bookkeeping.
  /// Returns false if it was a duplicate (drop).
  bool accept_seq(const Envelope& env);

  /// Recovery support: a peer (a source satisfying `pred`) crashed after
  /// this rank matched one of its rendezvous RTSs but before the payload
  /// arrived. The matched-but-incomplete requests are re-inserted into the
  /// posted queue (in post order) so the replayed/re-executed message
  /// matches them again. One pass covers a whole recovering cluster.
  void rewind_pending_if(const std::function<bool(int)>& pred);

  /// Serializes MPI-layer state into a checkpoint section.
  void serialize_runtime(util::ByteWriter& w) const;
  void restore_runtime(util::ByteReader& r);

  /// Application state serializers (invoked by the checkpoint protocol).
  void serialize_app(util::ByteWriter& w) const;
  void restore_app(util::ByteReader& r);
  bool has_state_handlers() const { return static_cast<bool>(app_save_); }

  /// Recovery: wipe volatile MPI state before restore_runtime().
  void reset_for_restart();
  void set_restarted(bool v) { restarted_ = v; }

  /// Fiber bookkeeping.
  void set_task(sim::Engine::TaskId id) { task_ = id; }
  sim::Engine::TaskId task() const { return task_; }

  /// Wakes the rank's fiber if it is parked in a blocking MPI call.
  void wake();

  uint64_t next_collective_seq(int ctx) { return ++coll_seq_[ctx]; }
  uint64_t next_request_post_seq() { return ++req_post_seq_; }
  /// Advances the logical progress counter; during recovery, reaching the
  /// pre-failure value reports catch-up to the Machine (rework measurement).
  void bump_op_counter();

 private:
  void complete_recv(const std::shared_ptr<RequestState>& req, const Envelope& env,
                     Payload payload);

  /// One sequence-number stream: this rank's send side toward the peer and
  /// its receive side from it, each present once first used (the
  /// checkpoint records exactly the streams either side has touched).
  struct Stream {
    ChannelSendState send;
    SeqWindow recv;
    bool has_send = false;
    bool has_recv = false;
  };

  Machine& machine_;
  int world_rank_;
  sim::Engine::TaskId task_ = sim::Engine::kInvalidTask;

  MatchEngine match_;
  PatternBook patterns_;
  StreamTable<Stream> streams_;
  std::map<int, uint64_t> coll_seq_;  // per-ctx collective sequence
  uint64_t req_post_seq_ = 0;
  uint64_t op_counter_ = 0;
  uint64_t lamport_ = 0;  // piggybacked clock (HydEE replay ordering)

  std::function<void(util::ByteWriter&)> app_save_;
  std::function<void(util::ByteReader&)> app_load_;
  bool restarted_ = false;

  // Matched rendezvous receptions awaiting their payload:
  // (src, sender_req) -> request.
  std::map<std::pair<int, uint64_t>, std::shared_ptr<RequestState>> pending_payload_;

  // Recovery catch-up watch: when progress reaches this target the rank has
  // re-executed all work lost to the failure (ops == 0 => no watch).
  Progress catch_up_target_{};

  // Compute-block tracking for Progress.
  bool in_compute_ = false;
  sim::Time compute_start_ = 0;
  sim::Time compute_duration_ = 0;
  Progress frozen_{};
  bool has_frozen_ = false;

  util::Pcg32 rng_;
  // compute()'s noise hash after its per-rank constant (seed, rank) prefix.
  util::Fnv1a64 noise_prefix_;
  RankProfile profile_;

 public:
  void set_catch_up_target(Progress t) { catch_up_target_ = t; }
};

}  // namespace spbc::mpi
