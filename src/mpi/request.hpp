#pragma once
// Nonblocking communication requests.
//
// A Request is a shared handle to runtime-owned state; the matching engine
// completes it from event context and wakes any fiber blocked in
// wait/waitany/waitall. Reception requests carry a per-rank post sequence
// number so they can be identified across executions (Section 3.3).

#include <cstdint>
#include <memory>

#include "mpi/types.hpp"
#include "sim/engine.hpp"
#include "util/pool.hpp"

namespace spbc::mpi {

struct RequestState {
  enum class Kind : uint8_t { kSend, kRecv };

  /// A fresh request. Each send and each reception makes one, so their
  /// blocks are recycled instead of going back to malloc.
  static std::shared_ptr<RequestState> make() {
    return std::allocate_shared<RequestState>(
        util::RecyclingAllocator<RequestState>{});
  }

  Kind kind = Kind::kRecv;

  // Recv-side matching criteria (what the application asked for).
  int match_src = kAnySource;  // world rank or kAnySource
  int match_tag = kAnyTag;
  int ctx = 0;
  PatternTag pid;       // active pattern at post time (Section 5.2.1)
  uint64_t post_seq = 0;  // per-rank request sequence number

  // Send-side identification.
  Envelope send_env;

  bool complete = false;
  bool matched = false;  // recv: matched to an envelope (payload may lag)
  // Seqnum of the envelope a matched rendezvous bound to (recv side). When
  // the sender crashes before the payload, the request is rewound and
  // *bound*: it may only re-match the re-delivery of exactly this seqnum
  // (replayed from the log or regenerated by re-execution), never a newer
  // message on the channel.
  uint64_t matched_seq = 0;
  int matched_tag = kAnyTag;  // tag of the matched envelope (identifies the
                              // message together with src/ctx/matched_seq,
                              // also under per-tag sequence streams)
  uint64_t bound_seq = 0;
  RecvResult result;  // recv only

  // Fiber parked in wait*/test* on this request, if any.
  sim::Engine::TaskId waiter = sim::Engine::kInvalidTask;
};

class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> st) : st_(std::move(st)) {}

  bool valid() const { return st_ != nullptr; }
  bool complete() const { return st_ && st_->complete; }

  RequestState* state() { return st_.get(); }
  const RequestState* state() const { return st_.get(); }
  const std::shared_ptr<RequestState>& shared() const { return st_; }

  /// Result of a completed reception request.
  const RecvResult& result() const {
    SPBC_ASSERT_MSG(st_ && st_->complete, "result() on incomplete request");
    return st_->result;
  }

 private:
  std::shared_ptr<RequestState> st_;
};

}  // namespace spbc::mpi
