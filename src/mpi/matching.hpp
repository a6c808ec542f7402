#pragma once
// The matching engine: posted-request and unexpected-message queues with
// MPICH-like semantics (Figure 1 of the paper).
//
// A reception request is matched with the first arrived message whose
// metadata matches (src or ANY_SOURCE, tag or ANY_TAG, communicator), in
// envelope-arrival order; an arriving envelope is matched against posted
// requests in post order. When the protocol enables id-based matching
// (Section 4.3 / 5.2.1), the predicate additionally requires equal
// (pattern_id, iteration_id) tuples — this single extra comparison is the
// entire A -> A' mechanism.
//
// Rendezvous messages enter the queues at RTS time (matching happens on the
// first packet, as in MPICH); their payload completes later.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "util/serialize.hpp"

namespace spbc::mpi {

/// An arrived-but-unmatched message (eager: payload present; rendezvous:
/// envelope only until the payload transfer completes).
struct UnexpectedMsg {
  Envelope env;
  Payload payload;
  bool payload_ready = false;   // false for pending rendezvous
  uint64_t sender_req = 0;      // rendezvous correlation id
};

class MatchEngine {
 public:
  /// Matching predicate per the paper: src/tag/comm always; pattern ids when
  /// `match_pattern_ids` is set.
  static bool matches(const RequestState& req, const Envelope& env,
                      bool match_pattern_ids);

  void set_match_pattern_ids(bool v) {
    arrivals_ += v != match_pattern_ids_;
    match_pattern_ids_ = v;
  }
  bool match_pattern_ids() const { return match_pattern_ids_; }

  /// An envelope arrived. If a posted request matches, it is removed from the
  /// posted queue and returned (payload is left with the caller); otherwise
  /// the payload is moved into the unexpected queue and nullptr is returned.
  std::shared_ptr<RequestState> on_envelope(const Envelope& env, Payload& payload,
                                            bool payload_ready, uint64_t sender_req);

  /// A reception request is posted. If an unexpected message matches, it is
  /// removed from the unexpected queue and returned (engaged); otherwise the
  /// request joins the posted queue.
  struct PostResult {
    bool matched = false;
    UnexpectedMsg msg;  // valid when matched
  };
  PostResult on_post(std::shared_ptr<RequestState> req);

  /// MPI_Iprobe: peeks the first matching unexpected message without
  /// removing it.
  bool iprobe(const RequestState& probe_req, Status* status) const;

  /// Recovery: re-inserts a request into the posted queue at its post-order
  /// position WITHOUT scanning the unexpected queue. Used when a matched-
  /// but-incomplete rendezvous is rewound after the sender crashed: the
  /// request must wait for the replay of the message it had matched, not
  /// grab a newer unexpected message from the same channel.
  void repost(std::shared_ptr<RequestState> req);

  /// Recovery: removes and returns the unexpected message a bound (rewound)
  /// request matches, if its re-delivery already arrived.
  PostResult take_bound(const RequestState& req);

  /// Recovery: drops, in one queue pass, unexpected rendezvous envelopes
  /// from every source satisfying `pred` whose payload has not arrived.
  /// Their transport state died with the sender's old incarnation; a later
  /// request matching one would CTS into the void. Per-channel FIFO puts the
  /// peer's Rollback ahead of any of its new messages, so at Rollback time
  /// every pending RTS from it is stale. Returns the number purged.
  size_t purge_pending_rts_if(const std::function<bool(int)>& pred);

  /// A rendezvous payload completed for an unexpected (still unmatched)
  /// message; marks it ready. Returns false if no such entry exists (it was
  /// already matched — the caller then completes the matched request).
  bool complete_unexpected_payload(uint64_t sender_req, int src, Payload payload);

  /// Recovery: a full copy of a message whose rendezvous RTS is still queued
  /// unmatched arrived (replay or re-execution overlapping an in-flight
  /// handshake during overlapping recoveries). Merges the payload into the
  /// queued entry in place — keeping its arrival-order position and avoiding
  /// a duplicate queue entry — and returns the entry's original sender_req
  /// through `stale_req` so the caller can release the sender with a
  /// discard-CTS. Returns false if no such pending entry exists.
  bool adopt_pending_rts(const Envelope& env, Payload& payload,
                         uint64_t* stale_req);

  /// Cancels a posted request (removes it from the posted queue).
  void cancel_posted(const RequestState* req);

  const std::deque<UnexpectedMsg>& unexpected() const { return unexpected_; }
  /// Moves whenever an iprobe that failed could now succeed: a message
  /// joined the unexpected queue, or the matching rule changed. A fiber in
  /// probe parks until it moves (sim::Engine::park_until_changed).
  const uint64_t& arrivals() const { return arrivals_; }
  size_t posted_count() const { return posted_.size(); }

  /// Checkpoint support. Only payload-ready unexpected messages are
  /// serialized: a pending-rendezvous envelope has no payload to save, and
  /// on recovery the sender will replay or regenerate the full message
  /// because its seqnum is absent from the receiver's received-window.
  void serialize(util::ByteWriter& w) const;
  void restore(util::ByteReader& r);

  /// Recovery support: drops all posted requests and unexpected messages
  /// (used when a rank is rolled back; state comes back via restore()).
  void clear();

 private:
  std::vector<std::shared_ptr<RequestState>> posted_;
  std::deque<UnexpectedMsg> unexpected_;
  uint64_t arrivals_ = 0;
  bool match_pattern_ids_ = false;
};

}  // namespace spbc::mpi
