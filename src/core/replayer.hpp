#pragma once
// Replay engine (Section 5.2.2).
//
// One Replayer per sending rank. On a Rollback from a recovering peer, the
// entries of this rank's sender log destined to that peer — minus anything
// the peer's restored received-window already covers — are queued in log
// (send-post) order. The replayer keeps up to `window` messages in flight
// ("up to 50 pre-posted messages per process was providing good
// performance"); queuing in post order preserves the deadlock-freedom
// argument of Section 5.2.2, and per-channel FIFO in the network preserves
// seqnum order on every channel.
//
// A `gate` lets the HydEE baseline interpose its coordinator round-trip per
// replayed message; SPBC's gate is pass-through — recovery is fully
// distributed ("the whole algorithm is applied independently on each
// communication channel").

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "core/sender_log.hpp"
#include "mpi/types.hpp"

namespace spbc::mpi {
class Machine;
}

namespace spbc::core {

class Replayer {
 public:
  /// `proceed` must eventually be invoked to release the message.
  using Gate = std::function<void(const mpi::Envelope& env, std::function<void()> proceed)>;

  Replayer() = default;

  void configure(mpi::Machine* machine, int self_rank, int window);
  void set_gate(Gate gate) { gate_ = std::move(gate); }

  /// Queues, in ONE pass over the log, every not-yet-replayed entry toward a
  /// destination satisfying `in_cluster` whose seqnum that destination does
  /// not hold, per the windows its cluster's Rollback carried.
  /// `windows_by_dst` maps dst -> (ctx, stream) -> received window; the
  /// stream is -1 in MPI-only mode or the message tag under seq_per_tag.
  /// `orphans_by_dst` maps dst -> (ctx, seq) -> completion callback for
  /// application send requests orphaned by the destination's crash. A
  /// missing key means empty windows / no orphans.
  void enqueue_for_cluster(
      SenderLog& log, const std::function<bool(int)>& in_cluster,
      const std::map<int, std::map<std::pair<int, int>, mpi::SeqWindow>>&
          windows_by_dst,
      std::map<int, std::map<std::pair<int, uint64_t>, std::function<void()>>>
          orphans_by_dst);

  int outstanding() const { return outstanding_; }
  size_t queued() const { return queue_.size(); }
  uint64_t replayed_total() const { return replayed_total_; }
  bool idle() const { return outstanding_ == 0 && queue_.empty(); }

  /// Called when the owning rank itself rolls back: queued items point into
  /// the pre-rollback log (about to be replaced) and in-flight completions
  /// reference pre-rollback channel state. Clears the queue and invalidates
  /// outstanding completion callbacks via the epoch.
  void reset();

 private:
  struct Item {
    mpi::Envelope env;
    const mpi::Payload* payload = nullptr;  // points into the sender log
    std::function<void()> orphan_done;
  };

  void pump();
  void launch(Item item);

  mpi::Machine* machine_ = nullptr;
  int self_ = -1;
  int window_ = 50;
  Gate gate_;
  std::deque<Item> queue_;
  int outstanding_ = 0;
  uint64_t replayed_total_ = 0;
  uint64_t epoch_ = 0;  // bumped by reset(); stale callbacks check it
};

}  // namespace spbc::core
