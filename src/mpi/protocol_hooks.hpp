#pragma once
// Interface between the simmpi runtime and a fault-tolerance protocol.
//
// The runtime calls these hooks at the points where a real implementation
// would instrument the MPI library (Section 5.2): on the send path (payload
// logging), on delivery (received-window bookkeeping), in the matching
// predicate (id-based matching), at checkpoint requests, and on control
// messages. Protocol implementations: core::SpbcProtocol, the baselines
// (global coordinated, HydEE), and a no-op NativeProtocol standing in for
// unmodified MPICH.

#include <cstdint>

#include "mpi/types.hpp"
#include "sim/time.hpp"

namespace spbc::mpi {

class Rank;
class Machine;

/// What a failure injection destroys besides the victim cluster's processes.
enum class FailureKind : uint8_t {
  kNodeLoss,     // the node dies: processes AND node-local storage are lost
  kProcessOnly,  // the processes die; node-local storage survives restart
  /// The node dies and never returns: storage is lost AND the node leaves
  /// service. Elastic recovery rebinds its resident ranks to a hot spare
  /// (or re-packs them onto survivors when the pool is empty) instead of
  /// restarting on the dead hardware.
  kNodePermanent,
};

class ProtocolHooks {
 public:
  virtual ~ProtocolHooks() = default;

  /// Called once after the Machine wired up all ranks.
  virtual void attach(Machine& machine) = 0;

  /// Called when the Machine learns the cluster decomposition
  /// (set_cluster_of), before any traffic flows. Protocols pre-size
  /// per-cluster state here instead of lazily inserting into shared maps —
  /// lazy insertion from concurrent shard events is a structural race under
  /// the threaded executor.
  virtual void on_cluster_map(int /*nclusters*/) {}

  /// Sender-side stamping of protocol metadata onto the envelope, called
  /// right after seqnum assignment and before on_send. SPBC piggybacks its
  /// checkpoint-epoch marker here: intra-cluster messages carry the sender's
  /// current epoch so receivers can classify traffic that crosses a
  /// checkpoint cut without any blocking coordination.
  virtual void stamp_envelope(Rank& /*sender*/, Envelope& /*env*/) {}

  /// Send path, called from the sender's fiber after seqnum assignment and
  /// before any transport activity. Returns the virtual-time cost to charge
  /// to the sender (payload logging memcpy etc.).
  virtual sim::Time on_send(Rank& sender, const Envelope& env,
                            const Payload& payload) = 0;

  /// Should this send actually reach the network? False when the peer
  /// already holds this seqnum (LS suppression during recovery).
  virtual bool should_transmit(Rank& sender, const Envelope& env) = 0;

  /// Delivery path at the destination's MPI layer (event context), after the
  /// received-window was updated and before matching. The payload is the
  /// delivered message content; SPBC's marker-based wave copies it into the
  /// per-epoch in-flight capture when the message crossed a checkpoint cut.
  virtual void on_delivered(Rank& receiver, const Envelope& env,
                            const Payload& payload) = 0;

  /// A message was matched to (and completed) a reception request — the
  /// application has consumed it. HydEE's coordinator model acknowledges
  /// replayed messages here: consumption is what proves the dependencies of
  /// the next replay are satisfied.
  virtual void on_matched(Rank& /*receiver*/, const Envelope& /*env*/) {}

  /// True if the matching predicate must also compare pattern ids
  /// (the A -> A' transformation of Section 4.3).
  virtual bool pattern_matching_enabled() const = 0;

  /// The application reached a checkpoint opportunity (iteration boundary).
  /// Blocking; called from the rank's fiber. Returns true if a checkpoint
  /// was taken.
  virtual bool maybe_checkpoint(Rank& rank) = 0;

  /// A failure was injected into the machine: the crash instant (serial
  /// context), before any process is killed and before the detection delay
  /// runs. Exactly one call per injected failure event — the feed for
  /// online failure-rate estimators. `kind` says whether the victim's node
  /// storage died with the processes.
  virtual void on_failure_injected(int /*victim_rank*/, FailureKind /*kind*/) {
  }

  /// A failure was detected; `victim` identifies the crashed rank. Called in
  /// event context once per failure event, on the Machine's behalf.
  virtual void on_failure(int victim_rank) = 0;

  /// A rank's process just died (crash instant or detection-time cluster
  /// kill — before on_failure's recovery orchestration). Storage-aware
  /// protocols invalidate the dead node's checkpoint copies here: LOCAL
  /// snapshots and hosted PARTNER copies do not survive the node.
  virtual void on_rank_killed(int /*rank*/) {}

  /// Protocol-level control message arrived at `receiver` (event context).
  virtual void on_control(Rank& receiver, const ControlMsg& msg) = 0;

  /// Called when a rank's fiber is (re)started, before the application main
  /// runs. No built-in protocol needs it: SPBC announces rollbacks from its
  /// recovery orchestration at respawn time.
  virtual void on_rank_start(Rank& /*rank*/, bool /*restarted*/) {}
};

/// Stand-in for the unmodified MPI library: no logging, no containment.
class NativeProtocol final : public ProtocolHooks {
 public:
  void attach(Machine&) override {}
  sim::Time on_send(Rank&, const Envelope&, const Payload&) override { return 0.0; }
  bool should_transmit(Rank&, const Envelope&) override { return true; }
  void on_delivered(Rank&, const Envelope&, const Payload&) override {}
  bool pattern_matching_enabled() const override { return false; }
  bool maybe_checkpoint(Rank&) override { return false; }
  void on_failure(int) override {}
  void on_control(Rank&, const ControlMsg&) override {}
};

}  // namespace spbc::mpi
