#include "mpi/machine.hpp"

#include <algorithm>

namespace spbc::mpi {

namespace {
// Wire size of a control message / message header (transport framing).
constexpr uint64_t kHeaderBytes = 64;
}  // namespace

Machine::Machine(MachineConfig cfg, std::unique_ptr<ProtocolHooks> protocol)
    : cfg_(cfg),
      topo_(sim::Topology::for_ranks(cfg.nranks, cfg.ranks_per_node,
                                     cfg.spare_nodes)),
      net_(engine_, topo_, cfg.net),
      protocol_(std::move(protocol)),
      world_(Comm::world(cfg.nranks)),
      incarnation_(static_cast<size_t>(cfg.nranks), 0),
      alive_(static_cast<size_t>(cfg.nranks), false),
      app_end_(static_cast<size_t>(cfg.nranks), 0.0),
      intra_outstanding_(static_cast<size_t>(cfg.nranks), 0),
      intra_drain_watchers_(static_cast<size_t>(cfg.nranks)),
      cluster_of_(static_cast<size_t>(cfg.nranks), 0),
      rendezvous_(static_cast<size_t>(cfg.nranks)),
      next_rendezvous_id_(static_cast<size_t>(cfg.nranks), 0),
      send_trace_rows_(static_cast<size_t>(cfg.nranks)),
      active_recovery_idx_(1, -1),
      pending_app_state_(static_cast<size_t>(cfg.nranks)) {
  SPBC_ASSERT(protocol_);
  SPBC_ASSERT_MSG(cfg.aggregate_rollbacks && cfg.tree_ckpt_markers,
                  "the pairwise control plane was removed");
  rebuild_members();
  traffic_.reset(cfg.nranks);
  engine_.set_abort_on_deadlock(cfg.abort_on_deadlock);
  // Elastic rebinds mutate machine-global maps from serial recovery events;
  // the threaded executor's shard windows do not serialize against those.
  if (cfg.spare_nodes > 0 ||
      cfg.default_failure_kind == FailureKind::kNodePermanent) {
    SPBC_ASSERT_MSG(cfg.engine_threads <= 1,
                    "elastic recovery (spare nodes / permanent failures) "
                    "requires engine_threads == 1");
  }
  node_of_rank_.resize(static_cast<size_t>(cfg.nranks));
  for (int r = 0; r < cfg.nranks; ++r)
    node_of_rank_[static_cast<size_t>(r)] = topo_.node_of(r);
  node_retired_.assign(static_cast<size_t>(topo_.total_nodes()), 0);
  // Straggler set: a pure function of (straggler_seed, node) so every layout
  // and every re-execution agrees on which nodes are slow. Spare nodes draw
  // too — a hot-swapped rank inherits its spare's speed.
  straggler_node_.assign(static_cast<size_t>(topo_.total_nodes()), 0);
  if (cfg.straggler_factor > 1.0 && cfg.straggler_frac > 0.0) {
    for (int n = 0; n < topo_.total_nodes(); ++n) {
      util::Fnv1a64 h;
      h.update_u64(cfg.straggler_seed);
      h.update_u64(static_cast<uint64_t>(n) ^ 0x57a661e5ull);
      double u = static_cast<double>(h.digest() >> 11) /
                 static_cast<double>(1ULL << 53);
      straggler_node_[static_cast<size_t>(n)] = u < cfg.straggler_frac ? 1 : 0;
    }
  }
  tombstoned_.assign(static_cast<size_t>(cfg.nranks), 0);
  for (int s = topo_.nodes(); s < topo_.total_nodes(); ++s)
    spare_pool_.push_back(s);
  // Hardware-level routing (same-node checks, NIC indexing) follows the
  // dynamic binding; identical to the topology's block layout until a
  // retirement rebinds something.
  net_.set_node_of([this](int r) { return this->node_of(r); });
  ranks_.reserve(static_cast<size_t>(cfg.nranks));
  for (int r = 0; r < cfg.nranks; ++r)
    ranks_.push_back(std::make_unique<Rank>(*this, r));
  protocol_->attach(*this);
}

// Parked rank fibers unwind while the ranks and the protocol they reference
// are still alive.
Machine::~Machine() { engine_.unwind_parked(); }

Rank& Machine::rank(int r) {
  SPBC_ASSERT(r >= 0 && r < cfg_.nranks);
  return *ranks_[static_cast<size_t>(r)];
}

void Machine::set_cluster_of(std::vector<int> cluster_of) {
  SPBC_ASSERT(static_cast<int>(cluster_of.size()) == cfg_.nranks);
  cluster_of_ = std::move(cluster_of);
  nclusters_ = *std::max_element(cluster_of_.begin(), cluster_of_.end()) + 1;
  rebuild_members();
  // Node colocation sanity: ranks on the same node must share a cluster
  // (Section 6.1 — containment inside a node is meaningless).
  if (cfg_.enforce_node_colocation) {
    for (int r = 1; r < cfg_.nranks; ++r) {
      if (topo_.same_node(r - 1, r)) {
        SPBC_ASSERT_MSG(cluster_of_[r - 1] == cluster_of_[r],
                        "ranks " << r - 1 << " and " << r
                                 << " share a node but not a cluster");
      }
    }
  }
  active_recovery_idx_.assign(static_cast<size_t>(nclusters_), -1);

  // Shard plan: logical shards are always one-per-cluster so the event order
  // depends only on the cluster map, and engine_shards merely caps how many
  // physical queues (and so how much thread parallelism) back them.
  const int exec = cfg_.engine_shards == 0
                       ? nclusters_
                       : std::min(cfg_.engine_shards, nclusters_);
  engine_.set_shard_plan(nclusters_, exec);
  // Cross-cluster messages take at least one network latency: inter-node
  // when clusters are node-colocated, else the intra-node floor. An
  // elastic machine gets the floor even when the initial map is colocated:
  // a shrunk restart can later pack two clusters onto one surviving node,
  // and their same-node cross-shard traffic then rides the intra path.
  const bool can_retire =
      cfg_.spare_nodes > 0 ||
      cfg_.default_failure_kind == FailureKind::kNodePermanent;
  engine_.set_lookahead(cfg_.enforce_node_colocation && !can_retire
                            ? cfg_.net.inter_latency
                            : cfg_.net.intra_latency);
  if (cfg_.engine_threads > 1) {
    SPBC_ASSERT_MSG(cfg_.enforce_node_colocation,
                    "threaded shard executor requires node-colocated "
                    "clusters (per-node NIC state is shard-owned)");
    engine_.set_threads(cfg_.engine_threads);
  }
  // Freeze the rank -> shard snapshot: later cluster migrations (streaming
  // repartitioner) keep a rank's events on its original shard, so the event
  // order — and with it fixed-seed bit-identity across shard layouts — never
  // depends on migration timing.
  shard_of_rank_ = cluster_of_;
  net_.set_shard_of([this](int r) { return this->shard_of(r); });
  protocol_->on_cluster_map(nclusters_);
}

int Machine::cluster_of(int rank) const {
  SPBC_ASSERT(rank >= 0 && rank < cfg_.nranks);
  return cluster_of_[static_cast<size_t>(rank)];
}

const std::vector<int>& Machine::ranks_in_cluster(int cluster) const {
  SPBC_ASSERT(cluster >= 0 && cluster < nclusters_);
  return members_[static_cast<size_t>(cluster)];
}

void Machine::rebuild_members() {
  members_.assign(static_cast<size_t>(nclusters_), {});
  for (int r = 0; r < cfg_.nranks; ++r)
    members_[static_cast<size_t>(cluster_of_[static_cast<size_t>(r)])].push_back(r);
}

void Machine::launch(AppFn app) {
  app_ = std::move(app);
  for (int r = 0; r < cfg_.nranks; ++r) {
    alive_[static_cast<size_t>(r)] = true;
    spawn_app(r, /*restarted=*/false);
  }
}

void Machine::spawn_app(int r, bool restarted) {
  Rank* rk = ranks_[static_cast<size_t>(r)].get();
  auto id = engine_.spawn_on(shard_of(r), [this, r, rk, restarted] {
    protocol_->on_rank_start(*rk, restarted);
    app_(*rk);
    app_end_[static_cast<size_t>(r)] = rk->now();
    rk->set_task(sim::Engine::kInvalidTask);
  });
  rk->set_task(id);
  const bool respawned = incarnation_[static_cast<size_t>(r)] > 0;
  engine_.set_task_label(
      id, "rank " + std::to_string(r) + (respawned ? " (restarted)" : ""));
}

RunResult Machine::run() {
  RunResult res;
  res.finish_time = engine_.run();
  res.app_end_time = *std::max_element(app_end_.begin(), app_end_.end());
  res.deadlocked = engine_.deadlocked();
  res.completed = !res.deadlocked && engine_.live_task_count() == 0;
  return res;
}

void Machine::inject_failure(sim::Time t, int victim_rank) {
  inject_failure(t, victim_rank, cfg_.default_failure_kind);
}

void Machine::inject_failure(sim::Time t, int victim_rank, FailureKind kind) {
  SPBC_ASSERT(victim_rank >= 0 && victim_rank < cfg_.nranks);
  // Serial event: the crash freezes every rank's progress and mutates
  // machine-global state (incarnations, liveness), so it runs alone at the
  // global barrier.
  engine_.at_serial(t, [this, victim_rank, kind] {
    // Freeze everyone's progress at the crash instant: the victim's cluster
    // peers keep running until detection, but the lost-work window (and so
    // the rework normalization) is defined by the failure time.
    for (auto& rk : ranks_) rk->freeze_progress();
    // The crash instant is the one point where a failure event exists
    // exactly once (detection-time kills fan out per rank, and overlapping
    // same-cluster failures coalesce): storage-aware and self-tuning
    // protocols learn the event — and its severity — here, before any kill.
    protocol_->on_failure_injected(victim_rank, kind);
    // The process crashes now; the protocol learns about it after the
    // failure-detection delay.
    kill_rank(victim_rank);
    engine_.after(cfg_.failure_detection_delay,
                  [this, victim_rank] { protocol_->on_failure(victim_rank); });
  });
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

void Machine::record_traffic(const Envelope& env) {
  traffic_.add(env.src, env.dst, env.bytes);
  if (cfg_.record_send_trace) {
    auto& tr = send_trace_rows_[static_cast<size_t>(env.src)]
                               [ChannelKey{env.src, env.dst, env.ctx}];
    util::Fnv1a64 h;
    h.update_u64(env.seqnum);
    h.update_u64(env.hash);
    h.update_u64(static_cast<uint64_t>(env.tag));
    h.update_u64((static_cast<uint64_t>(env.pid.pattern) << 32) | env.pid.iteration);
    tr.push_back(h.digest());
  }
}

void Machine::complete_send(RequestState& req) {
  req.complete = true;
  if (req.waiter != sim::Engine::kInvalidTask) engine_.unpark(req.waiter);
}

void Machine::transport_send(const Envelope& env, Payload payload,
                             std::shared_ptr<RequestState> req) {
  if (tombstoned_[static_cast<size_t>(env.dst)]) {
    // The destination is permanently dead, awaiting its elastic rebind: the
    // send completes as a no-op (MPI semantics: buffer reusable) without
    // entering the transport — no rendezvous handshake to spin on, no
    // intra-cluster in-flight accounting to drain. The restored destination
    // announces a Rollback after respawn; replay re-delivers what matters.
    tombstone_drops_.fetch_add(1, std::memory_order_relaxed);
    complete_send(*req);
    return;
  }
  record_traffic(env);
  bool intra = cluster_of(env.src) == cluster_of(env.dst);

  if (env.bytes <= cfg_.eager_threshold) {
    // Eager: one transfer carries header + payload; the send buffer is
    // reusable immediately (it was copied into the transport).
    if (intra) ++intra_outstanding_[static_cast<size_t>(env.src)];
    // The in-flight count belongs to this incarnation of the sender: if the
    // sender dies before arrival, kill_rank resets the counter and this
    // event must not touch it (it would underflow and wedge the drain).
    MsgNode* n = msg_pool_.acquire();
    n->env = env;
    n->payload = std::move(payload);
    n->inc = incarnation_[static_cast<size_t>(env.dst)];
    n->src_inc = incarnation_[static_cast<size_t>(env.src)];
    const bool same_shard = shard_of(env.src) == shard_of(env.dst);
    n->intra = intra && same_shard;
    const sim::Time arrival = net_.submit(
        net::Transfer{env.src, env.dst, env.bytes + kHeaderBytes}, [this, n] {
          const Envelope env = n->env;
          if (n->intra &&
              incarnation_[static_cast<size_t>(env.src)] == n->src_inc) {
            note_intra_send_landed(env.src);
          }
          if (incarnation_[static_cast<size_t>(env.dst)] != n->inc ||
              !alive_[static_cast<size_t>(env.dst)]) {
            dropped_in_flight_.fetch_add(1, std::memory_order_relaxed);
            msg_pool_.release(n);
            return;
          }
          Payload pl = std::move(n->payload);
          msg_pool_.release(n);
          deliver_data(env.dst, env, std::move(pl), true, 0);
        });
    if (intra && !same_shard) note_intra_send_landed_at(env.src, arrival);
    complete_send(*req);
  } else {
    // Rendezvous: RTS -> (match) -> CTS -> payload. The send completes when
    // the CTS arrives (buffer handed to the NIC). The intra-cluster
    // in-flight count covers the whole handshake: the message is "in the
    // channel" from RTS until its payload lands at the destination's MPI
    // layer, and the checkpoint wave's completion must wait out that span.
    if (intra) ++intra_outstanding_[static_cast<size_t>(env.src)];
    uint64_t id = ++next_rendezvous_id_[static_cast<size_t>(env.src)];
    rendezvous_[static_cast<size_t>(env.src)][id] =
        PendingRendezvous{env, std::move(payload),
                          [this, req] { complete_send(*req); },
                          incarnation_[static_cast<size_t>(env.dst)]};
    ControlMsg rts;
    rts.kind = ControlMsg::Kind::kRts;
    rts.src = env.src;
    rts.dst = env.dst;
    rts.env = env;
    rts.sender_req = id;
    send_control(env.src, env.dst, std::move(rts));
  }
}

void Machine::send_control(int src, int dst, ControlMsg msg) {
  SPBC_ASSERT(dst >= 0 && dst < cfg_.nranks);
  if (tombstoned_[static_cast<size_t>(dst)]) {
    // Control traffic to a permanently-dead rank is dropped at the source:
    // the incarnation filter would discard it on arrival anyway, but a
    // tombstoned destination should not keep burning transport events.
    tombstone_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint64_t bytes = kHeaderBytes + msg.words.size() * sizeof(uint64_t);
  CtrlNode* n = ctrl_pool_.acquire();
  n->msg = std::move(msg);
  n->inc = incarnation_[static_cast<size_t>(dst)];
  n->dst = dst;
  net_.submit(net::Transfer{src, dst, bytes}, [this, n] {
    if (incarnation_[static_cast<size_t>(n->dst)] != n->inc ||
        !alive_[static_cast<size_t>(n->dst)]) {
      dropped_in_flight_.fetch_add(1, std::memory_order_relaxed);
      ctrl_pool_.release(n);
      return;
    }
    handle_control(n->dst, n->msg);
    ctrl_pool_.release(n);
  });
}

void Machine::handle_control(int dst, const ControlMsg& msg) {
  switch (msg.kind) {
    case ControlMsg::Kind::kRts:
      deliver_data(dst, msg.env, Payload{}, false, msg.sender_req);
      break;
    case ControlMsg::Kind::kCts: {
      // Back at the sender (dst of the CTS): stream the payload, complete
      // the send request. The row is the sender's own.
      auto& row = rendezvous_[static_cast<size_t>(dst)];
      auto it = row.find(msg.sender_req);
      if (it == row.end()) return;  // purged by a crash in between
      PendingRendezvous pr = std::move(it->second);
      row.erase(it);
      // The rendezvous entry still existing proves the sender has not been
      // killed since the RTS, so the RTS-time intra increment is still live.
      bool intra = cluster_of(pr.env.src) == cluster_of(pr.env.dst);
      if (!msg.words.empty() && msg.words[0] == 1) {
        // Discard-CTS: the receiver already holds this seqnum; complete the
        // send without shipping the payload.
        if (intra) note_intra_send_landed(pr.env.src);
        if (pr.on_complete) pr.on_complete();
        break;
      }
      const Envelope env = pr.env;
      MsgNode* n = msg_pool_.acquire();
      n->env = env;
      n->payload = std::move(pr.payload);
      n->inc = incarnation_[static_cast<size_t>(env.dst)];
      n->src_inc = incarnation_[static_cast<size_t>(env.src)];
      const bool same_shard = shard_of(env.src) == shard_of(env.dst);
      n->intra = intra && same_shard;
      n->req = msg.sender_req;
      const sim::Time arrival = net_.submit(
          net::Transfer{env.src, env.dst, env.bytes + kHeaderBytes}, [this, n] {
            const Envelope env = n->env;
            if (n->intra &&
                incarnation_[static_cast<size_t>(env.src)] == n->src_inc) {
              note_intra_send_landed(env.src);
            }
            if (incarnation_[static_cast<size_t>(env.dst)] != n->inc ||
                !alive_[static_cast<size_t>(env.dst)]) {
              dropped_in_flight_.fetch_add(1, std::memory_order_relaxed);
              msg_pool_.release(n);
              return;
            }
            Payload pl = std::move(n->payload);
            uint64_t req_id = n->req;
            msg_pool_.release(n);
            rank(env.dst).deliver_payload(env, std::move(pl), req_id);
          });
      if (intra && !same_shard) note_intra_send_landed_at(env.src, arrival);
      if (pr.on_complete) pr.on_complete();
      break;
    }
    default:
      protocol_->on_control(rank(dst), msg);
      break;
  }
}

void Machine::deliver_data(int dst, Envelope env, Payload payload, bool payload_ready,
                           uint64_t sender_req) {
  rank(dst).deliver_envelope(env, std::move(payload), payload_ready, sender_req);
}

void Machine::replay_send(int src, const Envelope& env, const Payload& payload,
                          std::function<void()> on_complete) {
  if (tombstoned_[static_cast<size_t>(env.dst)]) {
    // Replay toward a permanently-dead rank: complete immediately so the
    // replayer's pacing window keeps moving. The rank's post-rebind Rollback
    // re-announces its restored windows and the replay re-enqueues then.
    tombstone_drops_.fetch_add(1, std::memory_order_relaxed);
    if (on_complete) on_complete();
    return;
  }
  MsgNode* n = msg_pool_.acquire();
  n->env = env;
  n->env.replayed = true;
  n->payload = payload;
  n->inc = incarnation_[static_cast<size_t>(env.dst)];
  // The completion mutates the *sender's* replayer and channel state
  // (replay_pending, pacing window, waking the sender's fiber), while the
  // arrival event runs on the destination's shard: schedule it back on the
  // calling (sender's) shard at the arrival time.
  sim::Time arrival =
      net_.submit(net::Transfer{src, env.dst, env.bytes + kHeaderBytes},
                  [this, n] {
                    const Envelope renv = n->env;
                    if (incarnation_[static_cast<size_t>(renv.dst)] == n->inc &&
                        alive_[static_cast<size_t>(renv.dst)]) {
                      deliver_data(renv.dst, renv, std::move(n->payload), true, 0);
                    }
                    msg_pool_.release(n);
                  });
  if (on_complete) engine_.at(arrival, std::move(on_complete));
}

// ---------------------------------------------------------------------------
// Crash / recovery mechanics
// ---------------------------------------------------------------------------

void Machine::retire_node(int node) {
  SPBC_ASSERT(node >= 0 && node < topo_.total_nodes());
  if (node_retired_[static_cast<size_t>(node)]) return;  // coalesced storm
  node_retired_[static_cast<size_t>(node)] = 1;
  std::vector<int> residents;
  for (int r = 0; r < cfg_.nranks; ++r)
    if (node_of_rank_[static_cast<size_t>(r)] == node) residents.push_back(r);
  if (residents.empty()) return;  // a drained node (everyone migrated away)
  for (int r : residents) tombstoned_[static_cast<size_t>(r)] = 1;

  if (!spare_pool_.empty()) {
    // Hot-swap: the whole resident set moves to the next pooled spare, so
    // the node-colocation invariant is preserved as-is.
    const int spare = spare_pool_.front();
    spare_pool_.erase(spare_pool_.begin());
    for (int r : residents) node_of_rank_[static_cast<size_t>(r)] = spare;
    ++spare_swaps_;
    return;
  }

  // Pool exhausted — shrunk restart: re-pack the residents onto the least
  // loaded surviving node, preferring one that already hosts their cluster
  // (keeps the colocation invariant when possible; a cross-cluster target is
  // the documented graceful degradation and is why elastic machines run
  // single-threaded). Deterministic: ties break toward the lowest node id.
  const int cluster = cluster_of_[static_cast<size_t>(residents.front())];
  std::vector<int> load(static_cast<size_t>(topo_.total_nodes()), 0);
  std::vector<uint8_t> hosts_cluster(static_cast<size_t>(topo_.total_nodes()),
                                     0);
  for (int r = 0; r < cfg_.nranks; ++r) {
    const int n = node_of_rank_[static_cast<size_t>(r)];
    if (n == node) continue;  // the dying residents themselves
    ++load[static_cast<size_t>(n)];
    if (cluster_of_[static_cast<size_t>(r)] == cluster)
      hosts_cluster[static_cast<size_t>(n)] = 1;
  }
  int best = -1;
  for (int n = 0; n < topo_.total_nodes(); ++n) {
    if (node_retired_[static_cast<size_t>(n)]) continue;
    if (load[static_cast<size_t>(n)] == 0 && n >= topo_.nodes())
      continue;  // an idle spare would have been in the pool
    if (best < 0 ||
        hosts_cluster[static_cast<size_t>(n)] >
            hosts_cluster[static_cast<size_t>(best)] ||
        (hosts_cluster[static_cast<size_t>(n)] ==
             hosts_cluster[static_cast<size_t>(best)] &&
         load[static_cast<size_t>(n)] < load[static_cast<size_t>(best)])) {
      best = n;
    }
  }
  SPBC_ASSERT_MSG(best >= 0, "no surviving node to shrink onto");
  for (int r : residents) node_of_rank_[static_cast<size_t>(r)] = best;
  ++shrink_restarts_;
}

void Machine::migrate_rank(int r, int cluster) {
  SPBC_ASSERT(r >= 0 && r < cfg_.nranks);
  SPBC_ASSERT(cluster >= 0 && cluster < nclusters_);
  std::vector<int>& from =
      members_[static_cast<size_t>(cluster_of_[static_cast<size_t>(r)])];
  from.erase(std::lower_bound(from.begin(), from.end(), r));
  std::vector<int>& to = members_[static_cast<size_t>(cluster)];
  to.insert(std::lower_bound(to.begin(), to.end(), r), r);
  cluster_of_[static_cast<size_t>(r)] = cluster;
}

void Machine::kill_rank(int r) {
  SPBC_ASSERT(r >= 0 && r < cfg_.nranks);
  if (!alive_[static_cast<size_t>(r)]) return;
  // Record lost progress at the moment of death (rework measurement).
  rank(r).freeze_progress();
  alive_[static_cast<size_t>(r)] = false;
  ++incarnation_[static_cast<size_t>(r)];
  // Pending rendezvous sends from the dead rank die with it.
  rendezvous_[static_cast<size_t>(r)].clear();
  intra_outstanding_[static_cast<size_t>(r)] = 0;
  // Drain watchers armed by the old incarnation are void: the checkpoint
  // wave they belonged to died with the rollback.
  intra_drain_watchers_[static_cast<size_t>(r)].clear();
  Rank& rk = rank(r);
  if (rk.task() != sim::Engine::kInvalidTask) {
    engine_.kill(rk.task());
    rk.set_task(sim::Engine::kInvalidTask);
  }
  // After the fiber unwound: storage-aware protocols drop checkpoint copies
  // that lived on the dead node.
  protocol_->on_rank_killed(r);
}

void Machine::respawn_rank(int r, bool restarted) {
  SPBC_ASSERT(!alive_[static_cast<size_t>(r)]);
  alive_[static_cast<size_t>(r)] = true;
  // Second incarnation bump: messages submitted while the rank was down
  // (survivors keep sending until they block) must not slip past the filter
  // by arriving after the respawn — they would overtake the replayed prefix
  // and break per-channel FIFO. Every such message is in its sender's log
  // and absent from the restored received-window, so replay re-delivers it
  // in order.
  ++incarnation_[static_cast<size_t>(r)];
  ranks_[static_cast<size_t>(r)]->set_restarted(restarted);
  tombstoned_[static_cast<size_t>(r)] = 0;  // elastic rebind completed
  spawn_app(r, restarted);
}

void Machine::set_pending_app_state(int r, std::vector<unsigned char> bytes) {
  SPBC_ASSERT(r >= 0 && r < cfg_.nranks);
  pending_app_state_[static_cast<size_t>(r)] = std::move(bytes);
}

std::vector<unsigned char> Machine::take_pending_app_state(int r) {
  SPBC_ASSERT(r >= 0 && r < cfg_.nranks);
  auto bytes = std::move(pending_app_state_[static_cast<size_t>(r)]);
  pending_app_state_[static_cast<size_t>(r)].clear();
  return bytes;
}

std::map<ChannelKey, std::vector<uint64_t>> Machine::send_trace() const {
  std::map<ChannelKey, std::vector<uint64_t>> out;
  // ChannelKey orders by src first, so appending rows in src order keeps the
  // hint valid and the merge linear.
  for (const auto& row : send_trace_rows_)
    out.insert(row.begin(), row.end());
  return out;
}

std::map<int, std::vector<Machine::OrphanSend>> Machine::take_rendezvous_to_if(
    const std::function<bool(int)>& pred, int src) {
  std::map<int, std::vector<OrphanSend>> out;
  auto& row = rendezvous_[static_cast<size_t>(src)];
  for (auto it = row.begin(); it != row.end();) {
    const int dst = it->second.env.dst;
    if (pred(dst) && it->second.dst_inc != incarnation_[static_cast<size_t>(dst)]) {
      out[dst].push_back(
          OrphanSend{it->second.env, std::move(it->second.on_complete)});
      it = row.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

void Machine::note_intra_send_landed(int src) {
  SPBC_ASSERT(intra_outstanding_[static_cast<size_t>(src)] > 0);
  --intra_outstanding_[static_cast<size_t>(src)];
  rank(src).wake();  // waiters on the count (diagnostics, legacy drains)
  if (intra_outstanding_[static_cast<size_t>(src)] == 0) {
    auto fns = std::move(intra_drain_watchers_[static_cast<size_t>(src)]);
    intra_drain_watchers_[static_cast<size_t>(src)].clear();
    for (auto& fn : fns) fn();
  }
}

void Machine::note_intra_send_landed_at(int src, sim::Time t) {
  // Only a migrated rank has an intra-cluster peer on another shard. The
  // arrival event runs on the destination's shard, so the sender's count is
  // settled by its own shard at the same instant instead.
  const uint32_t inc = incarnation_[static_cast<size_t>(src)];
  engine_.at_on(shard_of(src), t, [this, src, inc] {
    if (incarnation_[static_cast<size_t>(src)] == inc)
      note_intra_send_landed(src);
  });
}

void Machine::notify_when_intra_drained(int r, std::function<void()> fn) {
  if (intra_outstanding_[static_cast<size_t>(r)] == 0) {
    fn();
    return;
  }
  intra_drain_watchers_[static_cast<size_t>(r)].push_back(std::move(fn));
}

// ---------------------------------------------------------------------------
// Recovery measurement
// ---------------------------------------------------------------------------

RecoveryRecord* Machine::active_recovery(int cluster) {
  SPBC_ASSERT(cluster >= 0);
  if (static_cast<size_t>(cluster) >= active_recovery_idx_.size())
    return nullptr;
  ptrdiff_t idx = active_recovery_idx_[static_cast<size_t>(cluster)];
  if (idx < 0) return nullptr;
  return &recoveries_[static_cast<size_t>(idx)];
}

void Machine::begin_recovery_record(int cluster, sim::Time failure_time,
                                    sim::Time checkpoint_time,
                                    std::map<int, Rank::Progress> target_ops) {
  RecoveryRecord rec;
  rec.failed_cluster = cluster;
  rec.failure_time = failure_time;
  rec.restart_time = engine_.now();
  rec.checkpoint_time = checkpoint_time;
  rec.target_ops = std::move(target_ops);
  for (const auto& [r, ops] : rec.target_ops) rank(r).set_catch_up_target(ops);
  // Runs in serial (recovery-orchestration) context, so the push_back never
  // races a shard thread dereferencing an index.
  SPBC_ASSERT(cluster >= 0 &&
              static_cast<size_t>(cluster) < active_recovery_idx_.size());
  recoveries_.push_back(std::move(rec));
  active_recovery_idx_[static_cast<size_t>(cluster)] =
      static_cast<ptrdiff_t>(recoveries_.size()) - 1;
}

void Machine::note_catch_up(int r) {
  // Called from r's fiber: only cluster_of(r)'s shard touches this slot and
  // record, so the map insertions below are single-shard.
  RecoveryRecord* rec = active_recovery(cluster_of(r));
  if (!rec) return;
  if (rec->catch_up.count(r)) return;
  rec->catch_up[r] = engine_.now();
  if (rec->complete()) {
    rec->caught_up_time = engine_.now();
    active_recovery_idx_[static_cast<size_t>(cluster_of(r))] = -1;
  }
}

}  // namespace spbc::mpi
