#include "mpi/rank.hpp"

#include <algorithm>

#include "mpi/machine.hpp"

namespace spbc::mpi {

namespace {
// CPU cost of one test/iprobe poll.
constexpr sim::Time kPollOverhead = sim::nsec(120);
}  // namespace

Rank::Rank(Machine& machine, int world_rank)
    : machine_(machine),
      world_rank_(world_rank),
      rng_(machine.config().seed, static_cast<uint64_t>(world_rank) + 1) {
  noise_prefix_.update_u64(machine.config().seed);
  noise_prefix_.update_u64(static_cast<uint64_t>(world_rank));
}

int Rank::nranks() const { return machine_.nranks(); }
const Comm& Rank::world() const { return machine_.world(); }
sim::Time Rank::now() const { return machine_.engine().now(); }

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

Request Rank::isend(int dst, int tag, Payload payload, const Comm& comm) {
  bump_op_counter();
  // Application tags live in [0, kCollectiveTagBase); the collective layer
  // uses the range above it.
  SPBC_ASSERT_MSG(tag >= 0 && tag < (kCollectiveTagBase << 1),
                  "tag " << tag << " out of range");
  int dst_world = comm.world_rank(dst);
  SPBC_ASSERT_MSG(dst_world != world_rank_, "self-send unsupported");

  Envelope env;
  env.src = world_rank_;
  env.dst = dst_world;
  env.tag = tag;
  env.ctx = comm.ctx();
  env.seqnum = ++send_state(dst_world, comm.ctx(), tag).next_seq;
  env.pid = patterns_.current();
  env.bytes = payload.bytes;
  env.hash = payload.hash;
  env.uid = machine_.fresh_uid();
  env.lclock = ++lamport_;
  machine_.protocol().stamp_envelope(*this, env);

  ++profile_.sends;
  bool inter = machine_.cluster_of(env.src) != machine_.cluster_of(env.dst);
  if (inter)
    profile_.bytes_sent_inter_cluster += env.bytes;
  else
    profile_.bytes_sent_intra_cluster += env.bytes;

  // Protocol hook: sender-based logging (Algorithm 1, line 6). Always runs,
  // even for suppressed sends — the paper logs before the LS guard.
  sim::Time cost = machine_.protocol().on_send(*this, env, payload);
  cost += machine_.network().send_overhead();

  auto st = RequestState::make();
  st->kind = RequestState::Kind::kSend;
  st->ctx = comm.ctx();
  st->send_env = env;

  // Charge sender-side CPU cost (logging memcpy + injection overhead).
  sim::Time t0 = now();
  machine_.engine().wait(cost);
  profile_.time_mpi += now() - t0;

  // LS suppression (Algorithm 1, line 7): skip transmission if the peer
  // already received this seqnum before we rolled back.
  if (!machine_.protocol().should_transmit(*this, env)) {
    ++profile_.suppressed_sends;
    st->complete = true;
    return Request(st);
  }

  // FIFO with in-progress replay: a channel being replayed from our log must
  // deliver the replayed prefix before any new message (per-channel order).
  // The stream is looked up again after every park: events that ran in the
  // meantime may have created streams, which moves them all.
  if (send_state(dst_world, env.ctx, tag).replay_pending > 0) {
    sim::Time b0 = now();
    while (send_state(dst_world, env.ctx, tag).replay_pending > 0)
      machine_.engine().park();
    profile_.time_mpi += now() - b0;
  }

  machine_.transport_send(env, std::move(payload), st);
  return Request(st);
}

Request Rank::irecv(int src, int tag, const Comm& comm) {
  bump_op_counter();
  auto st = RequestState::make();
  st->kind = RequestState::Kind::kRecv;
  st->match_src = (src == kAnySource) ? kAnySource : comm.world_rank(src);
  st->match_tag = tag;
  st->ctx = comm.ctx();
  st->pid = patterns_.current();
  st->post_seq = next_request_post_seq();

  match_.set_match_pattern_ids(machine_.protocol().pattern_matching_enabled());
  auto res = match_.on_post(st);
  if (res.matched) {
    if (res.msg.payload_ready) {
      complete_recv(st, res.msg.env, std::move(res.msg.payload));
    } else {
      // Rendezvous: clear-to-send, then wait for the payload.
      st->matched = true;
      st->matched_seq = res.msg.env.seqnum;
      st->matched_tag = res.msg.env.tag;
      pending_payload_[{res.msg.env.src, res.msg.sender_req}] = st;
      ControlMsg cts;
      cts.kind = ControlMsg::Kind::kCts;
      cts.src = world_rank_;
      cts.dst = res.msg.env.src;
      cts.env = res.msg.env;
      cts.sender_req = res.msg.sender_req;
      machine_.send_control(world_rank_, res.msg.env.src, std::move(cts));
    }
  }
  return Request(st);
}

void Rank::send(int dst, int tag, Payload payload, const Comm& comm) {
  Request r = isend(dst, tag, std::move(payload), comm);
  wait(r);
}

RecvResult Rank::recv(int src, int tag, const Comm& comm) {
  Request r = irecv(src, tag, comm);
  wait(r);
  return r.result();
}

void Rank::wait(Request& req) {
  bump_op_counter();
  SPBC_ASSERT_MSG(req.valid(), "wait on null request");
  RequestState* st = req.state();
  sim::Time t0 = now();
  if (!st->complete) {
    st->waiter = machine_.engine().current_task();
    while (!st->complete) machine_.engine().park_until(st->complete);
    st->waiter = sim::Engine::kInvalidTask;
  }
  profile_.time_mpi += now() - t0;
  if (st->kind == RequestState::Kind::kRecv) ++profile_.recvs;
}

int Rank::waitany(std::vector<Request>& reqs) {
  bump_op_counter();
  SPBC_ASSERT(!reqs.empty());
  sim::Time t0 = now();
  for (;;) {
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].valid() && reqs[i].complete()) {
        profile_.time_mpi += now() - t0;
        if (reqs[i].state()->kind == RequestState::Kind::kRecv) ++profile_.recvs;
        return static_cast<int>(i);
      }
    }
    auto me = machine_.engine().current_task();
    for (auto& r : reqs)
      if (r.valid()) r.state()->waiter = me;
    machine_.engine().park();
    for (auto& r : reqs)
      if (r.valid()) r.state()->waiter = sim::Engine::kInvalidTask;
  }
}

void Rank::waitall(std::vector<Request>& reqs) {
  for (auto& r : reqs)
    if (r.valid()) wait(r);
}

bool Rank::test(Request& req) {
  bump_op_counter();
  // Polling costs CPU and is a scheduling point; without this, test loops
  // would spin forever in a cooperative simulator.
  machine_.engine().wait(kPollOverhead);
  return req.complete();
}

bool Rank::iprobe(int src, int tag, const Comm& comm, Status* status) {
  bump_op_counter();
  machine_.engine().wait(kPollOverhead);
  RequestState probe;
  probe.match_src = (src == kAnySource) ? kAnySource : comm.world_rank(src);
  probe.match_tag = tag;
  probe.ctx = comm.ctx();
  probe.pid = patterns_.current();
  match_.set_match_pattern_ids(machine_.protocol().pattern_matching_enabled());
  bool hit = match_.iprobe(probe, status);
  if (hit && status && status->source >= 0) {
    int cr = comm.comm_rank(status->source);
    SPBC_ASSERT(cr >= 0);
    status->source = cr;
  }
  return hit;
}

Status Rank::probe(int src, int tag, const Comm& comm) {
  RequestState probe_req;
  probe_req.match_src = (src == kAnySource) ? kAnySource : comm.world_rank(src);
  probe_req.match_tag = tag;
  probe_req.ctx = comm.ctx();
  probe_req.pid = patterns_.current();
  Status status;
  sim::Time t0 = now();
  while (!match_.iprobe(probe_req, &status))
    machine_.engine().park_until_changed(match_.arrivals());
  profile_.time_mpi += now() - t0;
  bump_op_counter();
  if (status.source >= 0) {
    int cr = comm.comm_rank(status.source);
    SPBC_ASSERT(cr >= 0);
    status.source = cr;
  }
  return status;
}

void Rank::compute(sim::Time seconds) {
  bump_op_counter();
  SPBC_ASSERT(seconds >= 0);
  double noise = machine_.config().compute_noise_frac;
  if (noise > 0) {
    // Deterministic per (seed, rank, op): re-execution redoes the same block
    // with the same duration, so rework comparisons stay apples-to-apples.
    util::Fnv1a64 h = noise_prefix_;
    h.update_u64(op_counter_);
    double u = static_cast<double>(h.digest() >> 11) /
               static_cast<double>(1ULL << 53);
    seconds *= 1.0 + noise * u;
  }
  const MachineConfig& mc = machine_.config();
  if (mc.straggler_factor > 1.0 &&
      machine_.straggler_node(machine_.node_of(world_rank_))) {
    // Straggler-ness follows the PHYSICAL binding: a rank hot-swapped onto a
    // spare node takes on that node's speed.
    sim::Time extra = seconds * (mc.straggler_factor - 1.0);
    profile_.time_straggler_stall += extra;
    seconds += extra;
  }
  profile_.time_compute += seconds;
  in_compute_ = true;
  compute_start_ = now();
  compute_duration_ = seconds;
  machine_.engine().wait(seconds);
  in_compute_ = false;
}

// ---------------------------------------------------------------------------
// Pattern API (Section 5.1)
// ---------------------------------------------------------------------------

uint32_t Rank::declare_pattern() {
  uint32_t id = patterns_.next_declare++;
  if (id < patterns_.iteration.size()) return id;  // re-declared after restart
  SPBC_ASSERT(id == patterns_.iteration.size());
  patterns_.iteration.push_back(0);
  return id;
}

void Rank::begin_iteration(uint32_t pattern_id) {
  SPBC_ASSERT_MSG(pattern_id > 0 && pattern_id < patterns_.iteration.size(),
                  "BEGIN_ITERATION on undeclared pattern " << pattern_id);
  SPBC_ASSERT_MSG(patterns_.active == 0,
                  "nested patterns are not supported (active="
                      << patterns_.active << ")");
  patterns_.active = pattern_id;
  ++patterns_.iteration[pattern_id];
}

void Rank::end_iteration(uint32_t pattern_id) {
  SPBC_ASSERT_MSG(patterns_.active == pattern_id,
                  "END_ITERATION(" << pattern_id << ") but active pattern is "
                                   << patterns_.active);
  patterns_.active = 0;  // restore the default communication pattern
}

// ---------------------------------------------------------------------------
// Checkpoint / restart
// ---------------------------------------------------------------------------

void Rank::set_state_handlers(std::function<void(util::ByteWriter&)> save,
                              std::function<void(util::ByteReader&)> load) {
  app_save_ = std::move(save);
  app_load_ = std::move(load);
}

bool Rank::maybe_checkpoint() {
  bump_op_counter();
  return machine_.protocol().maybe_checkpoint(*this);
}

// ---------------------------------------------------------------------------
// Runtime internals
// ---------------------------------------------------------------------------

int Rank::stream_of(int tag) const {
  return machine_.config().seq_per_tag ? tag : -1;
}

Rank::ChannelSendState& Rank::send_state(int dst, int ctx, int tag) {
  Stream& st = streams_[StreamKey{dst, ctx, stream_of(tag)}];
  st.has_send = true;
  return st.send;
}

void Rank::clear_peer_received(int peer) {
  streams_.for_each([peer](const StreamKey& key, Stream& st) {
    if (key.peer == peer) st.send.peer_received = SeqWindow{};
  });
}

void Rank::clear_peer_received_if(const std::function<bool(int)>& pred) {
  streams_.for_each([&pred](const StreamKey& key, Stream& st) {
    if (st.has_send && pred(key.peer)) st.send.peer_received = SeqWindow{};
  });
}

SeqWindow& Rank::recv_window(int src, int ctx, int tag) {
  Stream& st = streams_[StreamKey{src, ctx, stream_of(tag)}];
  st.has_recv = true;
  return st.recv;
}

bool Rank::accept_seq(const Envelope& env) {
  auto& win = recv_window(env.src, env.ctx, env.tag);
  if (win.contains(env.seqnum)) {
    ++profile_.duplicate_drops;
    return false;
  }
  win.add(env.seqnum);
  lamport_ = std::max(lamport_, env.lclock) + 1;
  return true;
}

void Rank::deliver_envelope(const Envelope& env, Payload payload, bool payload_ready,
                            uint64_t sender_req) {
  match_.set_match_pattern_ids(machine_.protocol().pattern_matching_enabled());
  if (payload_ready) {
    // Full message (eager or replayed): dedupe + received-window update.
    if (!accept_seq(env)) return;
    machine_.protocol().on_delivered(*this, env, payload);
    // Overlapping recoveries can race a REPLAYED full copy of a message
    // against an in-flight rendezvous handshake for the same message (a
    // re-executed copy takes the same eager/rendezvous path as the
    // original, so only replays deliver a full copy of a rendezvous-sized
    // message). Reconcile instead of queuing a duplicate copy — gated on
    // env.replayed to keep both scans off the failure-free hot path:
    if (env.replayed) {
      //  (a) a request already matched the message's RTS and is parked on
      //      the payload — complete it with this copy (content is identical
      //      by send determinism; the eventual rendezvous payload, if the
      //      handshake is still live, deduplicates on arrival);
      for (auto it = pending_payload_.begin(); it != pending_payload_.end(); ++it) {
        const auto& req = it->second;
        if (it->first.first == env.src && req->matched_seq == env.seqnum &&
            req->ctx == env.ctx && req->matched_tag == env.tag) {
          auto r = req;
          pending_payload_.erase(it);
          complete_recv(r, env, std::move(payload));
          wake();
          return;
        }
      }
      //  (b) the message's RTS is still queued unmatched — merge the payload
      //      into that entry (keeping its arrival-order position) and
      //      release the sender with a discard-CTS, since the payload need
      //      not ship.
      uint64_t stale_req = 0;
      if (match_.adopt_pending_rts(env, payload, &stale_req)) {
        ControlMsg cts;
        cts.kind = ControlMsg::Kind::kCts;
        cts.src = world_rank_;
        cts.dst = env.src;
        cts.env = env;
        cts.sender_req = stale_req;
        cts.words.push_back(1);  // discard: complete the send, skip payload
        machine_.send_control(world_rank_, env.src, std::move(cts));
        wake();
        return;
      }
    }
    auto req = match_.on_envelope(env, payload, true, sender_req);
    if (req) complete_recv(req, env, std::move(payload));
  } else {
    // Rendezvous RTS for an already-received seqnum: the payload will never
    // be needed, but the sender is parked waiting for a CTS — answer with a
    // discard-CTS so its request completes without a payload transfer.
    // (This happens when a rolled-back sender re-executes a send before the
    // peer's lastMessage suppression info reaches it.)
    const auto& win = recv_window(env.src, env.ctx, env.tag);
    if (win.contains(env.seqnum)) {
      ++profile_.duplicate_drops;
      ControlMsg cts;
      cts.kind = ControlMsg::Kind::kCts;
      cts.src = world_rank_;
      cts.dst = env.src;
      cts.env = env;
      cts.sender_req = sender_req;
      cts.words.push_back(1);  // discard: complete the send, skip the payload
      machine_.send_control(world_rank_, env.src, std::move(cts));
      return;
    }
    Payload empty;
    auto req = match_.on_envelope(env, empty, false, sender_req);
    if (req) {
      req->matched = true;
      req->matched_seq = env.seqnum;
      req->matched_tag = env.tag;
      pending_payload_[{env.src, sender_req}] = req;
      ControlMsg cts;
      cts.kind = ControlMsg::Kind::kCts;
      cts.src = world_rank_;
      cts.dst = env.src;
      cts.env = env;
      cts.sender_req = sender_req;
      machine_.send_control(world_rank_, env.src, std::move(cts));
    }
  }
  wake();
}

void Rank::deliver_payload(const Envelope& env, Payload payload, uint64_t sender_req) {
  if (!accept_seq(env)) return;
  machine_.protocol().on_delivered(*this, env, payload);
  auto it = pending_payload_.find({env.src, sender_req});
  if (it != pending_payload_.end()) {
    auto req = it->second;
    pending_payload_.erase(it);
    complete_recv(req, env, std::move(payload));
  } else {
    // RTS queued as unexpected and still unmatched: attach the payload.
    bool ok = match_.complete_unexpected_payload(sender_req, env.src, std::move(payload));
    SPBC_ASSERT_MSG(ok, "rendezvous payload with no matching RTS state");
  }
  wake();
}

void Rank::rewind_pending_if(const std::function<bool(int)>& pred) {
  // Pair each rewound request with its entry's source: an aggregated
  // rollback rewinds a whole cluster's worth of sources in one pass.
  std::vector<std::pair<int, std::shared_ptr<RequestState>>> rewound;
  for (auto it = pending_payload_.begin(); it != pending_payload_.end();) {
    if (pred(it->first.first)) {
      it->second->matched = false;
      rewound.emplace_back(it->first.first, it->second);
      it = pending_payload_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [src, req] : rewound) {
    // Bind the request to the exact message it had matched: its re-delivery
    // (replayed from the peer's log, or regenerated by re-execution) is
    // guaranteed, and binding prevents a newer message on the channel from
    // being grabbed out of order.
    req->bound_seq = req->matched_seq;
    req->match_src = src;
    // The re-delivery may already be sitting in the unexpected queue (the
    // restarted peer can re-send before its Rollback reaches us), so insert
    // in post order, then scan for the bound message.
    match_.repost(req);
    auto res = match_.take_bound(*req);
    if (!res.matched) continue;
    match_.cancel_posted(req.get());
    if (res.msg.payload_ready) {
      complete_recv(req, res.msg.env, std::move(res.msg.payload));
    } else {
      req->matched = true;
      req->matched_seq = res.msg.env.seqnum;
      req->matched_tag = res.msg.env.tag;
      pending_payload_[{res.msg.env.src, res.msg.sender_req}] = req;
      ControlMsg cts;
      cts.kind = ControlMsg::Kind::kCts;
      cts.src = world_rank_;
      cts.dst = res.msg.env.src;
      cts.env = res.msg.env;
      cts.sender_req = res.msg.sender_req;
      machine_.send_control(world_rank_, res.msg.env.src, std::move(cts));
    }
  }
}

void Rank::complete_recv(const std::shared_ptr<RequestState>& req, const Envelope& env,
                         Payload payload) {
  req->complete = true;
  req->result.source = env.src;  // world rank; collectives translate as needed
  req->result.tag = env.tag;
  req->result.bytes = env.bytes;
  req->result.hash = env.hash;
  req->result.data = std::move(payload.data);
  machine_.protocol().on_matched(*this, env);
  if (req->waiter != sim::Engine::kInvalidTask) machine_.engine().unpark(req->waiter);
}

void Rank::serialize_runtime(util::ByteWriter& w) const {
  // Both sections list their streams in StreamKey order, each behind its
  // count.
  uint64_t nsend = 0, nrecv = 0;
  streams_.for_each_sorted([&](const StreamKey&, const Stream& st) {
    nsend += st.has_send;
    nrecv += st.has_recv;
  });
  w.put<uint64_t>(nsend);
  streams_.for_each_sorted([&w](const StreamKey& key, const Stream& st) {
    if (!st.has_send) return;
    // replay_pending is transient and deliberately not serialized: a rank may
    // snapshot while replaying for another cluster's recovery (the marker
    // wave never drains replays). If this snapshot is ever restored, the
    // replayer is reset and the still-recovering peers re-announce their
    // Rollbacks, which re-queues the replays from the restored log.
    w.put(key);
    w.put<uint64_t>(st.send.next_seq);
    st.send.peer_received.serialize(w);
  });
  w.put<uint64_t>(nrecv);
  for_each_recv_window([&w](const StreamKey& key, const SeqWindow& win) {
    w.put(key);
    win.serialize(w);
  });
  w.put<uint64_t>(coll_seq_.size());
  for (const auto& [ctx, seq] : coll_seq_) {
    w.put<int>(ctx);
    w.put<uint64_t>(seq);
  }
  w.put<uint64_t>(req_post_seq_);
  w.put<uint64_t>(op_counter_);
  w.put<uint64_t>(lamport_);
  patterns_.serialize(w);
  match_.serialize(w);
  w.put(rng_);
}

void Rank::restore_runtime(util::ByteReader& r) {
  streams_.clear();
  auto ns = r.get<uint64_t>();
  for (uint64_t i = 0; i < ns; ++i) {
    Stream& st = streams_[r.get<StreamKey>()];
    st.has_send = true;
    st.send.next_seq = r.get<uint64_t>();
    st.send.peer_received = SeqWindow::deserialize(r);
  }
  auto nw = r.get<uint64_t>();
  for (uint64_t i = 0; i < nw; ++i) {
    Stream& st = streams_[r.get<StreamKey>()];
    st.has_recv = true;
    st.recv = SeqWindow::deserialize(r);
  }
  coll_seq_.clear();
  auto nc = r.get<uint64_t>();
  for (uint64_t i = 0; i < nc; ++i) {
    int ctx = r.get<int>();
    coll_seq_[ctx] = r.get<uint64_t>();
  }
  req_post_seq_ = r.get<uint64_t>();
  op_counter_ = r.get<uint64_t>();
  lamport_ = r.get<uint64_t>();
  patterns_.restore(r);
  match_.restore(r);
  rng_ = r.get<util::Pcg32>();
}

void Rank::serialize_app(util::ByteWriter& w) const {
  SPBC_ASSERT_MSG(app_save_, "no state handlers registered (set_state_handlers)");
  app_save_(w);
}

void Rank::restore_app(util::ByteReader& r) {
  SPBC_ASSERT_MSG(app_load_, "no state handlers registered (set_state_handlers)");
  app_load_(r);
}

void Rank::restore_app_state() {
  auto bytes = machine_.take_pending_app_state(world_rank_);
  SPBC_ASSERT_MSG(!bytes.empty(), "restore_app_state with no pending state");
  util::ByteReader r(bytes);
  restore_app(r);
}

void Rank::reset_for_restart() {
  match_.clear();
  streams_.clear();
  coll_seq_.clear();
  pending_payload_.clear();
  patterns_ = PatternBook{};
  req_post_seq_ = 0;
  op_counter_ = 0;
}

Rank::Progress Rank::progress_now() const {
  Progress p;
  p.ops = op_counter_;
  if (in_compute_) {
    sim::Time elapsed = now() - compute_start_;
    p.compute_elapsed = std::clamp(elapsed, 0.0, compute_duration_);
  }
  return p;
}

void Rank::freeze_progress() {
  frozen_ = progress_now();
  has_frozen_ = true;
}

void Rank::bump_op_counter() {
  ++op_counter_;
  if (catch_up_target_.ops != 0 && op_counter_ >= catch_up_target_.ops) {
    sim::Time extra = catch_up_target_.compute_elapsed;
    catch_up_target_ = Progress{};
    has_frozen_ = false;
    if (extra > 0) {
      // The lost work ended partway through this op's compute block; the
      // rank is caught up once it has redone that partial slice.
      int r = world_rank_;
      Machine* m = &machine_;
      machine_.engine().after(extra, [m, r] { m->note_catch_up(r); });
    } else {
      machine_.note_catch_up(world_rank_);
    }
  }
}

void Rank::wake() {
  if (task_ == sim::Engine::kInvalidTask) return;
  machine_.engine().unpark(task_);
}


}  // namespace spbc::mpi
