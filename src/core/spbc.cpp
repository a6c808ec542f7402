#include "core/spbc.hpp"

#include <algorithm>

#include "clustering/comm_graph.hpp"
#include "clustering/streaming.hpp"
#include "util/assert.hpp"

namespace spbc::core {

namespace {

// Control-word encodings for Rollback / lastMessage payloads:
// [n_streams, { ctx, stream, window... } * n ]. A stream is a whole channel
// in MPI-only mode (stream id -1) or a (channel, tag) sub-stream under the
// Section 7 hybrid extension.
using StreamWindows = std::map<std::pair<int, int>, mpi::SeqWindow>;

void encode_windows(const StreamWindows& windows, std::vector<uint64_t>& out) {
  out.push_back(windows.size());
  for (const auto& [key, win] : windows) {
    out.push_back(static_cast<uint64_t>(static_cast<int64_t>(key.first)));
    out.push_back(static_cast<uint64_t>(static_cast<int64_t>(key.second)));
    win.encode(out);
  }
}

StreamWindows decode_windows(const std::vector<uint64_t>& in, size_t& pos) {
  StreamWindows windows;
  uint64_t n = in.at(pos++);
  for (uint64_t i = 0; i < n; ++i) {
    int ctx = static_cast<int>(static_cast<int64_t>(in.at(pos++)));
    int stream = static_cast<int>(static_cast<int64_t>(in.at(pos++)));
    windows[{ctx, stream}] = mpi::SeqWindow::decode(in, pos);
  }
  return windows;
}

// Binomial-tree arithmetic over a cluster's members vector (ascending rank
// order; index 0 is both the wave root and the tree root). parent(i) clears
// the lowest set bit of i; the subtree rooted at i spans the contiguous
// index range [i, i + lowbit(i)) clipped to the member count.
int tree_parent(int idx) { return idx & (idx - 1); }

int tree_subtree_size(int idx, int k) {
  if (idx == 0) return k;
  int low = idx & -idx;
  return low < k - idx ? low : k - idx;
}

// Tree-adjacent member indices of idx: the binomial parent plus the
// children i + 2^j for 2^j < lowbit(i) (the whole range when i == 0),
// clipped to the member count.
void tree_neighbors(int idx, int k, std::vector<int>& out) {
  out.clear();
  if (idx > 0) out.push_back(tree_parent(idx));
  const int span = idx == 0 ? k : (idx & -idx);
  for (int step = 1; step < span && idx + step < k; step <<= 1)
    out.push_back(idx + step);
}

}  // namespace

namespace {
// The control plane needs to know whether staging levels are app-visible
// stalls (sync) or background traffic (async) when costing its strides.
core::ControlPlaneConfig with_staging_mode(core::ControlPlaneConfig c,
                                           bool async_staging) {
  c.async_staging = async_staging;
  return c;
}
}  // namespace

SpbcProtocol::SpbcProtocol(SpbcConfig cfg)
    : cfg_(cfg),
      store_(cfg.storage, cfg.storage_model),
      staging_(ckpt::StagingConfig{cfg.storage, cfg.async_staging,
                                   cfg.storage_model, cfg.redundancy,
                                   cfg.control.scrub_period,
                                   /*prepare_escalated=*/cfg.control.escalation,
                                   cfg.control.escalated,
                                   cfg.pfs_interference}),
      control_(with_staging_mode(cfg.control, cfg.async_staging),
               cfg.storage_model) {}

void SpbcProtocol::attach(mpi::Machine& machine) {
  machine_ = &machine;
  staging_.attach(machine);
  control_.attach(&staging_);
  // The scrub cadence doubles as the control plane's time-based policy tick
  // (de-escalation on calm must not wait for the next failure).
  staging_.set_scrub_tick([this](sim::Time now) { control_.on_tick(now); });
  int n = machine.nranks();
  // Pre-size per-rank and per-cluster state: under the threaded shard
  // executor, lazy growth from concurrent shard events would be a
  // structural race. (set_cluster_of also calls on_cluster_map, covering
  // either wiring order.)
  store_.reserve_ranks(n);
  store_.set_reduction(cfg_.reduction);
  on_cluster_map(machine.nclusters());
  logs_.resize(static_cast<size_t>(n));
  synth_state_.assign(static_cast<size_t>(n), {});
  if (cfg_.state_model.bytes > 0) {
    for (int r = 0; r < n; ++r)
      synth_state_[static_cast<size_t>(r)] = ckpt::make_state(cfg_.state_model, r);
  }
  replayers_.resize(static_cast<size_t>(n));
  facade_.assign(static_cast<size_t>(n), {});
  ckpt_.resize(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    replayers_[static_cast<size_t>(r)].configure(&machine, r, cfg_.replay_window);
    auto gate = make_gate(r);
    if (gate) replayers_[static_cast<size_t>(r)].set_gate(std::move(gate));
  }
}

const SenderLog& SpbcProtocol::log_of(int rank) const {
  return logs_.at(static_cast<size_t>(rank));
}
SenderLog& SpbcProtocol::log_of_mut(int rank) {
  return logs_.at(static_cast<size_t>(rank));
}
const Replayer& SpbcProtocol::replayer_of(int rank) const {
  return replayers_.at(static_cast<size_t>(rank));
}

bool SpbcProtocol::is_inter_cluster(const mpi::Envelope& env) const {
  const bool inter =
      machine_->cluster_of(env.src) != machine_->cluster_of(env.dst);
  if (!migration_.active) return inter;
  // Bridge pre-classification (DESIGN.md §14): once a mover cut the boundary
  // epoch, its traffic with its OLD cluster is logged as if the flip already
  // happened — those sends must be in the sender log when the flip turns the
  // channel into a real inter-cluster one. The envelope's epoch stamp is the
  // sender's cut at send time, so the classification is a pure function of
  // the message, identical on the send and delivery paths. Pairs migrating
  // together stay intra (they remain colocated after the flip); the extra
  // pre-flip logging is safe — intra-classified logs are simply never
  // replayed.
  const bool src_moving = is_migrating(env.src);
  const bool dst_moving = is_migrating(env.dst);
  if (src_moving == dst_moving) return inter;
  const int other = src_moving ? env.dst : env.src;
  if (machine_->cluster_of(other) != migration_.from) return inter;
  return inter || env.ckpt_epoch >= migration_.boundary_a;
}

bool SpbcProtocol::is_migrating(int rank) const {
  for (int m : migration_.ranks)
    if (m == rank) return true;
  return false;
}

void SpbcProtocol::on_cluster_map(int nclusters) {
  control_.set_domains(nclusters);
  if (static_cast<size_t>(nclusters) > waves_.size())
    waves_.resize(static_cast<size_t>(nclusters));
  if (static_cast<size_t>(nclusters) > storage_survives_.size())
    storage_survives_.resize(static_cast<size_t>(nclusters), 0);
  // Arm the streaming repartitioner's cadence (once): shard events read the
  // serial-written migration state, so the bridge needs the single-threaded
  // executor — the same discipline the elastic machine hooks assert.
  if (cfg_.control.repartition_period > 0 && !repartition_armed_ &&
      machine_ != nullptr && nclusters > 1) {
    SPBC_ASSERT_MSG(machine_->config().engine_threads <= 1,
                    "online repartitioning requires engine_threads <= 1");
    repartition_armed_ = true;
    schedule_repartition();
  }
}

SpbcProtocol::ClusterWave& SpbcProtocol::wave_of(int cluster) {
  // Lazy growth only happens when no cluster map was installed (legacy
  // single-threaded runs); sharded runs pre-size via on_cluster_map.
  if (static_cast<size_t>(cluster) >= waves_.size())
    waves_.resize(static_cast<size_t>(cluster) + 1);
  return waves_[static_cast<size_t>(cluster)];
}

uint64_t SpbcProtocol::committed_epoch(int cluster) const {
  return static_cast<size_t>(cluster) < waves_.size()
             ? waves_[static_cast<size_t>(cluster)].committed
             : 0;
}

uint64_t SpbcProtocol::snapshot_epoch(int rank) const {
  return ckpt_.at(static_cast<size_t>(rank)).snap_epoch;
}

uint8_t SpbcProtocol::commit_levels(int rank) const {
  return ckpt_.at(static_cast<size_t>(rank)).commit_levels;
}

// ---------------------------------------------------------------------------
// Failure-free path (Algorithm 1, lines 3-12)
// ---------------------------------------------------------------------------

void SpbcProtocol::stamp_envelope(mpi::Rank& sender, mpi::Envelope& env) {
  // The piggybacked marker: every envelope carries the sender's current
  // snapshot epoch. An intra-cluster message stamped below the receiver's
  // snapshot epoch was sent before the sender's cut and delivered after the
  // receiver's — exactly the channel state a Chandy-Lamport wave records.
  env.ckpt_epoch = ckpt_[static_cast<size_t>(sender.rank())].snap_epoch;
}

sim::Time SpbcProtocol::on_send(mpi::Rank& sender, const mpi::Envelope& env,
                                const mpi::Payload& payload) {
  if (!is_inter_cluster(env)) return 0.0;
  // Line 6: log before the LS guard — the log must contain every
  // inter-cluster message of the execution.
  logs_[static_cast<size_t>(env.src)].append(env, payload);
  sender.profile_mut().bytes_logged += env.bytes;
  return cfg_.log_overhead + static_cast<double>(env.bytes) / cfg_.log_memcpy_bw;
}

bool SpbcProtocol::should_transmit(mpi::Rank& sender, const mpi::Envelope& env) {
  if (!is_inter_cluster(env)) return true;
  // Line 7: skip sends the destination already received before we rolled
  // back (peer_received was installed by its lastMessage reply).
  const auto& ch = sender.send_state(env.dst, env.ctx, env.tag);
  return !ch.peer_received.contains(env.seqnum);
}

void SpbcProtocol::on_delivered(mpi::Rank& receiver, const mpi::Envelope& env,
                                const mpi::Payload& payload) {
  // Received-window bookkeeping (the LR of line 11, generalized) already
  // happened in Rank::accept_seq.
  if (!is_inter_cluster(env)) {
    // Marker-wave channel capture: a message stamped below the receiver's
    // snapshot epoch crossed the cut(s) in (stamp, snap_epoch]. The restored
    // sender will not re-send it (its snapshot counts it as sent) and the
    // restored receiver has not received it, so it must be part of the
    // epoch's restore data. Redelivered captures are re-stamped with the
    // restored epoch, which keeps them out of this branch.
    auto& cs = ckpt_[static_cast<size_t>(receiver.rank())];
    if (env.ckpt_epoch < cs.snap_epoch) {
      uint64_t live = store_.record_in_flight(receiver.rank(), env.ckpt_epoch + 1,
                                              cs.snap_epoch, env, payload);
      // Capture-pressure trigger: retained captures are only reclaimed when
      // a newer epoch commits, so a rank past its bound cuts a fresh epoch
      // at its next checkpoint opportunity (as if a peer's marker arrived)
      // instead of waiting for the periodic schedule.
      if (cfg_.capture_bytes_bound != 0 && live > cfg_.capture_bytes_bound &&
          cs.wave_seen <= cs.snap_epoch) {
        cs.wave_seen = cs.snap_epoch + 1;
        ++capture_forced_waves_;
      }
    }
  }
  // The HydEE hook observes replays here.
  if (env.replayed) on_replay_delivered(env);
}

// ---------------------------------------------------------------------------
// Coordinated checkpointing inside a cluster (line 14)
// ---------------------------------------------------------------------------

bool SpbcProtocol::maybe_checkpoint(mpi::Rank& rank) {
  auto& cs = ckpt_[static_cast<size_t>(rank.rank())];
  ++cs.calls;
  bool boundary;
  if (control_.enabled()) {
    // Adaptive trigger: cut when the observed-MTBF Young/Daly interval has
    // elapsed since this member's last cut. Members may reach the threshold
    // at different call indices; the marker mechanism below makes the rest
    // of the cluster join the wave at their next opportunity — exactly the
    // path checkpoint_now already exercises.
    boundary =
        machine_->engine().now() - cs.last_cut >= control_.local_interval();
  } else {
    // Periodic trigger: a pure function of the call index, so every member
    // of a cluster reaches the same decision at the same logical spot
    // (SPMD).
    boundary =
        cfg_.checkpoint_every != 0 && cs.calls % cfg_.checkpoint_every == 0;
  }
  // Marker trigger: a cluster peer already cut an epoch we have not (it
  // called checkpoint_now, or cadences drifted). This is our first
  // app-consistent point since its marker arrived — join the wave here. The
  // cut need not land at the same call index on every member: consistency
  // comes from the epoch stamps (capture for sent-before/received-after,
  // duplicate filtering plus send determinism for the reverse), not from
  // call-index alignment.
  if (!boundary && cs.wave_seen <= cs.snap_epoch) return false;
  run_coordinated_checkpoint(rank);
  return true;
}

void SpbcProtocol::checkpoint_now(mpi::Rank& rank) { run_coordinated_checkpoint(rank); }

bool SpbcProtocol::need_checkpoint(mpi::Rank& rank) {
  // The facade's query half of maybe_checkpoint: the SAME trigger (the §13
  // control plane's time-based boundary when enabled, the static every-N
  // schedule otherwise, OR a peer's wave marker running ahead of our last
  // snapshot) evaluated WITHOUT cutting — the app cuts on its own schedule
  // through spbc_start/spbc_route/spbc_complete. The call still counts as a
  // checkpoint opportunity, so a facade-driven app paces the periodic
  // schedule exactly like a pattern-API app calling maybe_checkpoint.
  auto& cs = ckpt_[static_cast<size_t>(rank.rank())];
  ++cs.calls;
  bool boundary;
  if (control_.enabled()) {
    boundary =
        machine_->engine().now() - cs.last_cut >= control_.local_interval();
  } else {
    boundary =
        cfg_.checkpoint_every != 0 && cs.calls % cfg_.checkpoint_every == 0;
  }
  return boundary || cs.wave_seen > cs.snap_epoch;
}

// The marker-based wave (replaces the old Ready/Take/Done/Resume drain
// barrier — see DESIGN.md). Each member snapshots at its own checkpoint
// boundary without waiting for anyone: the checkpoint decision is SPMD (a
// pure function of the call index), so every member cuts at the same logical
// spot. From the cut on, outgoing intra-cluster envelopes carry the new
// epoch stamp (stamp_envelope), which is the piggybacked marker; an explicit
// kCkptMarker control message announces the cut to peers that see no data
// traffic. Messages that cross the cut are captured at the receiver
// (on_delivered) and re-delivered on restore. The wave commits through an
// async completion reduction over a binomial tree: a member's kCkptComplete
// aggregate moves toward the wave root once its snapshot is written, its
// pre-cut intra-cluster sends have landed, and its tree children reported;
// the root broadcasts kCkptCommit when the aggregate covers every member.
// No rank ever parks, so two clusters checkpointing concurrently cannot
// form a cross-cluster circular wait through halo dependencies.
// Tree-based marker dissemination (MachineConfig::tree_ckpt_markers). A
// member floods a wave's epoch to its binomial-tree neighbors the first
// time it learns of the wave — from its own cut (learned_from == -1) or
// from a received marker (learned_from == the forwarding peer, skipped).
// The marker_fwd guard caps every member at one forwarding round per epoch,
// so a wave costs O(members) marker messages in total where the all-to-all
// broadcast costs O(members^2).
void SpbcProtocol::flood_wave_marker(int me, uint64_t epoch, int learned_from) {
  auto& cs = ckpt_[static_cast<size_t>(me)];
  if (cs.marker_fwd >= epoch) return;
  cs.marker_fwd = epoch;
  const int cluster = machine_->cluster_of(me);
  const std::vector<int>& members = machine_->ranks_in_cluster(cluster);
  const int k = static_cast<int>(members.size());
  const int idx = static_cast<int>(
      std::lower_bound(members.begin(), members.end(), me) - members.begin());
  SPBC_ASSERT_MSG(idx < k && members[static_cast<size_t>(idx)] == me,
                  "rank " << me << " not a member of cluster " << cluster);
  std::vector<int> nbrs;
  tree_neighbors(idx, k, nbrs);
  for (int nidx : nbrs) {
    const int peer = members[static_cast<size_t>(nidx)];
    if (peer == learned_from) continue;
    mpi::ControlMsg msg;
    msg.kind = mpi::ControlMsg::Kind::kCkptMarker;
    msg.src = me;
    msg.dst = peer;
    msg.words.push_back(epoch);
    machine_->send_control(me, peer, std::move(msg));
  }
}

void SpbcProtocol::run_coordinated_checkpoint(mpi::Rank& rank) {
  const int me = rank.rank();
  const int cluster = machine_->cluster_of(me);
  const std::vector<int>& members = machine_->ranks_in_cluster(cluster);
  auto& cs = ckpt_[static_cast<size_t>(me)];
  const uint64_t epoch = cs.snap_epoch + 1;

  // --- the cut: capture local state, no coordination, no parking ---------
  util::ByteWriter w;
  if (cfg_.state_model.bytes > 0) {
    // Synthetic evolving state: mutate a deterministic subset of blocks for
    // this epoch, then capture the buffer. Keyed by (seed, rank, epoch)
    // only, so re-execution after a rollback regenerates identical state —
    // and identical delta chains. It leads the capture, raw (its length is
    // fixed by the state model): at offset 0 its blocks stay aligned from
    // epoch to epoch, so the growing log and runtime state behind it cannot
    // shift them and unchanged blocks hash equal (DESIGN.md §15).
    std::vector<unsigned char>& buf = synth_state_[static_cast<size_t>(me)];
    ckpt::evolve_state(buf, cfg_.state_model, me, epoch);
    w.put_raw(buf.data(), buf.size());
  }
  w.put<uint64_t>(epoch);
  w.put<uint64_t>(cs.calls);
  rank.serialize_runtime(w);
  logs_[static_cast<size_t>(me)].serialize(w);
  util::ByteWriter app;
  rank.serialize_app(app);
  w.put_bytes(app.bytes().data(), app.size());

  ckpt::Snapshot snap;
  snap.taken_at = machine_->engine().now();
  snap.epoch = epoch;
  snap.bytes = w.take();
  // Level plan first (a pure read of control-plane state): migration
  // boundary/pin epochs are forced to full staging depth AND to a full
  // (non-delta) capture — the flip's rename_epoch re-keys them, which must
  // not orphan a delta from its chain.
  ckpt::LevelPlan plan = control_.plan_for_epoch(epoch);
  bool force_full = false;
  if (!forced_pfs_epoch_.empty()) {
    auto fp = forced_pfs_epoch_.find(cluster);
    if (fp != forced_pfs_epoch_.end() && fp->second == epoch) {
      plan.redundancy = true;
      plan.pfs = true;
      force_full = true;
    }
  }
  const ckpt::SaveInfo sinfo = store_.save(me, std::move(snap), force_full);
  // Downstream levels ship the reduced (delta/compressed) bytes; the pad
  // models incompressible side state and rides on top of them.
  const uint64_t staged = sinfo.stored_bytes + cfg_.snapshot_pad_bytes;
  cs.last_cut = machine_->engine().now();
  control_.note_snapshot_bytes(staged);
  // Staging write: the fiber stall is the full configured-level cost in sync
  // mode but only the fast LOCAL write under async staging — the drainer
  // promotes LOCAL -> PARTNER -> PFS in the background while the
  // application computes. Under the control plane the epoch carries a level
  // plan: cheap LOCAL epochs fire at the Young/Daly cadence while the
  // redundancy hop and the PFS flush run at their own (longer) strides.
  sim::Time cost = staging_.write(me, epoch, staged, plan, sinfo.chain_base);

  if (cfg_.gc_logs) {
    // Freeze the inter-cluster received-windows the epoch captured (GC at
    // commit must not see post-snapshot receipts) — encoded directly into
    // the wave's transient aggregate so they piggyback on this member's
    // kCkptComplete instead of waiting in a per-(rank, epoch) side table.
    std::vector<uint64_t>& blob = cs.agg[epoch].windows[me];
    blob.assign(1, 0);
    uint64_t n = 0;
    for (const auto& [key, win] : rank.all_recv_windows()) {
      if (machine_->cluster_of(key.peer) == cluster) continue;
      blob.push_back(static_cast<uint64_t>(static_cast<int64_t>(key.peer)));
      blob.push_back(static_cast<uint64_t>(static_cast<int64_t>(key.ctx)));
      blob.push_back(static_cast<uint64_t>(static_cast<int64_t>(key.stream)));
      win.encode(blob);
      ++n;
    }
    blob[0] = n;
  }

  // From this instant the cut exists: deliveries of pre-cut messages (even
  // those arriving during the storage wait below) are classified as
  // cut-crossing, and everything we send is stamped with the new epoch.
  cs.snap_epoch = epoch;

  // Explicit markers so idle peers learn of the wave without data traffic.
  if (machine_->config().tree_ckpt_markers) {
    flood_wave_marker(me, epoch, /*learned_from=*/-1);
  } else {
    for (int m : members) {
      if (m == me) continue;
      mpi::ControlMsg msg;
      msg.kind = mpi::ControlMsg::Kind::kCkptMarker;
      msg.src = me;
      msg.dst = m;
      msg.words.push_back(epoch);
      machine_->send_control(me, m, std::move(msg));
    }
  }

  // Storage cost is charged to the member's own fiber (the write itself is
  // not free) — but no cluster-wide rendezvous follows it.
  if (cost > 0) machine_->engine().wait(cost);

  // --- async completion: report once our pre-cut sends have landed --------
  arm_wave_completion(me, epoch);
}

void SpbcProtocol::arm_wave_completion(int member, uint64_t epoch) {
  const uint32_t inc = machine_->incarnation(member);
  machine_->notify_when_intra_drained(member, [this, member, epoch, inc] {
    if (machine_->incarnation(member) != inc) return;  // rolled back meanwhile
    auto& cs = ckpt_[static_cast<size_t>(member)];
    if (cs.snap_epoch < epoch) return;  // superseded by a rollback
    // The member may have out-raced this epoch's drain and already cut a
    // newer one; the drain that just finished covers every epoch cut before
    // it, so report everything not yet reported — dropping the older report
    // would leave its wave one member short forever.
    for (uint64_t e = cs.complete_sent + 1; e <= cs.snap_epoch; ++e) {
      cs.agg[e].self_done = true;
      try_forward_aggregate(member, e);
    }
    cs.complete_sent = std::max(cs.complete_sent, cs.snap_epoch);
  });
}

// One hop of the binomial-tree completion reduction: once this member's own
// drain reached `epoch` and every tree-child subtree reported, the combined
// member set moves one level up (or commits, at the root). Aggregates carry
// explicit member ranks rather than counts so re-sent reports after partial
// delivery are idempotent under set union.
void SpbcProtocol::try_forward_aggregate(int member, uint64_t epoch) {
  const int cluster = machine_->cluster_of(member);
  auto& cs = ckpt_[static_cast<size_t>(member)];
  auto it = cs.agg.find(epoch);
  if (it == cs.agg.end()) return;
  if (epoch <= wave_of(cluster).committed) {
    cs.agg.erase(it);  // stale state from a superseded wave
    return;
  }
  const std::vector<int>& members = machine_->ranks_in_cluster(cluster);
  const int k = static_cast<int>(members.size());
  const int idx = static_cast<int>(
      std::lower_bound(members.begin(), members.end(), member) - members.begin());
  SPBC_ASSERT_MSG(idx < k && members[static_cast<size_t>(idx)] == member,
                  "rank " << member << " not a member of cluster " << cluster);
  auto& agg = it->second;
  const int descendants = tree_subtree_size(idx, k) - 1;
  if (!agg.self_done || agg.sent ||
      static_cast<int>(agg.covered.size()) < descendants) {
    return;
  }
  agg.sent = true;
  if (idx == 0) {
    // covered + self == every member; the aggregated GC windows (gc_logs)
    // are consumed by the commit before the transient state is dropped.
    commit_epoch(cluster, epoch, agg.windows);
    cs.agg.erase(epoch);
    return;
  }
  mpi::ControlMsg msg;
  msg.kind = mpi::ControlMsg::Kind::kCkptComplete;
  msg.src = member;
  msg.dst = members[static_cast<size_t>(tree_parent(idx))];
  msg.words.push_back(epoch);
  msg.words.push_back(agg.covered.size() + 1);
  for (int m : agg.covered) msg.words.push_back(static_cast<uint64_t>(m));
  msg.words.push_back(static_cast<uint64_t>(member));
  if (cfg_.gc_logs) {
    // Piggyback the frozen GC windows of every member this aggregate
    // covers: [rank, len, words...] blocks after the member list.
    for (const auto& [m, blob] : agg.windows) {
      msg.words.push_back(static_cast<uint64_t>(m));
      msg.words.push_back(blob.size());
      msg.words.insert(msg.words.end(), blob.begin(), blob.end());
    }
  }
  cs.agg.erase(epoch);
  machine_->send_control(member, msg.dst, std::move(msg));
}

void SpbcProtocol::commit_epoch(
    int cluster, uint64_t epoch,
    const std::map<int, std::vector<uint64_t>>& gc_windows) {
  auto& wave = wave_of(cluster);
  if (epoch <= wave.committed) return;  // stale commit from a superseded wave

  // Commit: every member snapshotted `epoch` and drained its pre-cut sends,
  // so the epoch's snapshots plus its in-flight captures form a complete
  // consistent cut. Older epochs are superseded — but under async staging
  // they are only pruned down to the cluster's PFS frontier: the committed
  // epoch may still live only at LOCAL/PARTNER, and a node failure that
  // destroys those copies needs an older, flushed epoch to fall back to.
  wave.committed = epoch;
  control_.on_commit();  // a re-plan point for the interval controller
  const std::vector<int>& members = machine_->ranks_in_cluster(cluster);
  uint64_t floor = epoch;
  if (staging_.async()) {
    for (int m : members) floor = std::min(floor, staging_.pfs_frontier(m));
  }
  if (!forced_pfs_epoch_.empty()) {
    // An in-flight migration pins this cluster's boundary/pin epoch against
    // pruning: the flip renames the movers' snapshots into it and the
    // post-flip fallback floor rests on every member still holding it.
    auto fp = forced_pfs_epoch_.find(cluster);
    if (fp != forced_pfs_epoch_.end()) floor = std::min(floor, fp->second);
  }
  const int root = members.front();
  for (int m : members) {
    // The residency the commit is backed by, for introspection and benches.
    ckpt_[static_cast<size_t>(m)].commit_levels = staging_.levels(m, epoch);
    if (m == root) {
      // The down-sweep reaches the root locally; members prune their
      // superseded snapshots/captures when their kCkptCommit arrives.
      ckpt_[static_cast<size_t>(m)].epoch = epoch;
      // The store clamps the floor to the oldest retained epoch's delta-chain
      // base; staging must keep the same interval or restores of the surviving
      // head would find their chain elements unstaged.
      const uint64_t eff = store_.prune_epochs_below(m, floor);
      staging_.prune_epochs_below(m, eff);
      maybe_spill_captures(m);
      continue;
    }
    mpi::ControlMsg msg;
    msg.kind = mpi::ControlMsg::Kind::kCkptCommit;
    msg.src = root;
    msg.dst = m;
    msg.words.push_back(epoch);
    msg.words.push_back(floor);
    machine_->send_control(root, m, std::move(msg));
  }
  if (cfg_.gc_logs) {
    // Extension (off by default): once a cluster's wave commits, every
    // channel into it can drop log entries the committed epoch captured.
    // The windows each member froze at its cut arrived piggybacked on the
    // completion aggregates, so the commit consumes them here and nothing
    // outlives the wave. GC mutates *other* clusters' sender logs, so it
    // bounces to serial context in sharded runs; the windows are copied
    // because the caller drops the wave's transient state on return.
    auto windows = gc_windows;
    machine_->engine().run_serial([this, windows = std::move(windows)] {
      for (const auto& [member, blob] : windows) gc_from_windows(member, blob);
    });
  }
}

void SpbcProtocol::gc_from_windows(int member, const std::vector<uint64_t>& blob) {
  size_t pos = 0;
  const uint64_t n = blob.at(pos++);
  for (uint64_t i = 0; i < n; ++i) {
    const int peer = static_cast<int>(static_cast<int64_t>(blob.at(pos++)));
    const int ctx = static_cast<int>(static_cast<int64_t>(blob.at(pos++)));
    const int stream = static_cast<int>(static_cast<int64_t>(blob.at(pos++)));
    mpi::SeqWindow win = mpi::SeqWindow::decode(blob, pos);
    logs_[static_cast<size_t>(peer)].gc_received(member, ctx, win, stream);
  }
}

void SpbcProtocol::maybe_spill_captures(int rank) {
  if (cfg_.capture_bytes_bound == 0) return;
  if (store_.capture_live_bytes(rank) <= cfg_.capture_bytes_bound) return;
  // The commit's prune stopped at the retention floor (the PFS frontier
  // lags the committed epoch under async staging), so memory pressure
  // cannot be reclaimed by pruning. Push the oldest captures out to the
  // node-local device instead of stalling reclamation.
  const uint64_t spilled =
      store_.spill_captures(rank, cfg_.capture_bytes_bound);
  if (spilled != 0) staging_.charge_local_spill(rank, spilled);
}

// ---------------------------------------------------------------------------
// Failure handling and recovery (lines 16-26)
// ---------------------------------------------------------------------------

void SpbcProtocol::on_failure_injected(int victim_rank, mpi::FailureKind kind) {
  // The crash instant (serial, before any kill): record the failure's
  // severity for the kill path below and feed the control plane's
  // estimators. Exactly one call per injected failure, so the estimators
  // never double-count the victim's kill and its peers' detection-time
  // kills as separate events.
  const bool storage_lost = kind != mpi::FailureKind::kProcessOnly;
  // storage_survives_ drives the detection-time kills of the victim's
  // cluster peers. kNodeLoss takes the whole cluster's nodes down; a
  // permanent loss takes exactly the victim's node out of service — the
  // peers' nodes (and the redundancy fragments they host, which the spare
  // rebuild reads) survive.
  const int cluster = machine_->cluster_of(victim_rank);
  if (static_cast<size_t>(cluster) < storage_survives_.size())
    storage_survives_[static_cast<size_t>(cluster)] =
        kind == mpi::FailureKind::kNodeLoss ? 0 : 1;
  const int node = machine_->node_of(victim_rank);
  control_.note_failure(machine_->engine().now(), storage_lost, node);
  if (kind == mpi::FailureKind::kNodePermanent) {
    // The node never returns: invalidate its staged copies against the OLD
    // physical binding first — retire_node rebinds the residents to a spare
    // (or packs them onto survivors), after which residency is computed
    // against the NEW node and the dead copies would be missed.
    staging_.invalidate_node(node);
    // A shrunk restart can pack ranks from another cluster onto this node;
    // when the node dies they die with it. Collect the tenants before
    // retire_node rebinds residency, then run the standard failure path for
    // each collateral cluster: kill its residents at the crash instant and
    // let detection trigger its cluster-wide rollback (coalescing with any
    // restart already pending there).
    std::map<int, std::vector<int>> collateral;
    for (int r = 0; r < machine_->nranks(); ++r)
      if (machine_->node_of(r) == node && machine_->cluster_of(r) != cluster)
        collateral[machine_->cluster_of(r)].push_back(r);
    machine_->retire_node(node);
    for (const auto& entry : collateral) {
      if (static_cast<size_t>(entry.first) < storage_survives_.size())
        storage_survives_[static_cast<size_t>(entry.first)] = 1;
      for (int r : entry.second) machine_->kill_rank(r);
      const int rep = entry.second.front();
      machine_->engine().after(machine_->config().failure_detection_delay,
                               [this, rep] { on_failure(rep); });
    }
  }
}

void SpbcProtocol::on_failure(int victim_rank) {
  const int cluster = machine_->cluster_of(victim_rank);
  // Coalesce: a second crash in a cluster whose restart is already scheduled
  // (killed, restored, fibers not yet respawned) needs no further action —
  // the victim is already dead and the pending respawn covers everyone.
  if (restart_pending_.count(cluster)) return;
  const std::vector<int>& members = machine_->ranks_in_cluster(cluster);
  const sim::Time failure_time =
      machine_->engine().now() - machine_->config().failure_detection_delay;
  ++rollbacks_;
  recovering_clusters_.insert(cluster);
  restart_pending_.insert(cluster);

  // Record pre-failure progress (rework-time measurement). The victim's
  // progress was frozen at the crash; other members die now, at detection.
  std::map<int, mpi::Rank::Progress> targets;
  for (int r : members) {
    const mpi::Rank::Progress* frozen = machine_->rank(r).frozen_progress();
    targets[r] = frozen ? *frozen : machine_->rank(r).progress_now();
  }

  // Line 18: the whole cluster rolls back to its last committed checkpoint
  // epoch. Kill first (fibers unwind, incarnations bump, and the staging
  // residency of the dead nodes is invalidated via on_rank_killed), then
  // restore in-memory state; fibers respawn after the restart delay. The
  // epoch is chosen cluster-wide: members that already snapshotted a newer,
  // not-yet-committed epoch discard it — restoring a mix of epochs would be
  // an inconsistent cut.
  for (int r : members) machine_->kill_rank(r);
  select_and_restore(cluster, members, failure_time, targets,
                     wave_of(cluster).committed);
}

void SpbcProtocol::select_and_restore(int cluster, std::vector<int> members,
                                      sim::Time failure_time,
                                      std::map<int, mpi::Rank::Progress> targets,
                                      uint64_t epoch_hint) {
  auto& wave = wave_of(cluster);
  uint64_t epoch = epoch_hint;
  // Multi-level fallback: the committed epoch may have lived only at levels
  // this failure just destroyed (e.g. LOCAL on the dead nodes while its
  // PFS flush was still in flight). Fall back to the newest older epoch
  // every member can still reconstruct — scheme-aware: an XOR member with a
  // dead LOCAL copy counts as recoverable while its group can rebuild it —
  // down to the commit-time retention floor (the cluster's PFS frontier),
  // which keeps older flushed epochs around precisely for this.
  while (epoch > 0) {
    bool ok = true;
    for (int r : members) {
      // Audit before trusting residency: fragments the host silently lost
      // must not count as live sources (no false restore success), exactly
      // as the read path itself audits.
      staging_.audit_for_restore(r, epoch);
      if (!store_.has_epoch(r, epoch) || !staging_.recoverable(r, epoch)) {
        ok = false;
        break;
      }
    }
    if (ok) break;
    --epoch;
  }
  if (epoch != wave.committed) {
    // Lower the cluster's committed epoch to what is actually restorable so
    // re-execution can legitimately re-commit the epochs in between.
    staging_.note_epoch_fallback();
    wave.committed = epoch;
  }
  sim::Time ckpt_time = 0;
  sim::Time read_cost = 0;
  std::vector<int> rebuilds;
  std::vector<ckpt::RestorePlan> direct_plans;
  for (int r : members) {
    if (epoch > 0) {
      ckpt_time = std::max(ckpt_time, store_.at_epoch(r, epoch).taken_at);
      // Restart must re-read every member's snapshot from its cheapest live
      // source; the slowest member's read extends the outage. Direct reads
      // (LOCAL / remote copy / PFS) are a pure cost; XOR rebuilds schedule
      // real network reads below and finish when the last fragment lands.
      // Direct-read metrics are deferred until the pass commits: a rebuild
      // failure abandons this epoch and re-enters one lower, and the
      // abandoned pass's direct reads never happen.
      ckpt::RestorePlan plan = staging_.plan_restore(r, epoch);
      if (plan.source == ckpt::RestorePlan::Source::kRebuild ||
          staging_.restore_chain(r, epoch).size() > 1) {
        // Delta heads read their whole chain [base..epoch]; route them
        // through execute_restore, which reads (and audits) per element.
        rebuilds.push_back(r);
      } else if (plan.source != ckpt::RestorePlan::Source::kNone) {
        direct_plans.push_back(plan);
        read_cost = std::max(read_cost, plan.direct_cost);
      }
    }
    restore_rank(r, epoch);
  }

  // Shared, not copied per callback: the rebuild path threads this closure
  // (and its captured member/target maps) through every network-read
  // completion.
  auto finish = std::make_shared<std::function<void()>>(
      [this, cluster, members, epoch, failure_time, ckpt_time,
       targets] {
    restart_pending_.erase(cluster);
    for (int r : members) machine_->respawn_rank(r, epoch > 0);
    // Re-deliver the intra-cluster messages the restored epoch captured as
    // in flight across its cut: their senders' snapshots count them as sent,
    // so nothing else would ever deliver them.
    for (int r : members) redeliver_captured(r, epoch);
    machine_->begin_recovery_record(cluster, failure_time, ckpt_time, targets);
    // Lines 19-20: announce the rollback with the restored received-windows.
    if (machine_->config().aggregate_rollbacks) {
      std::vector<int> outside;
      outside.reserve(static_cast<size_t>(machine_->nranks()));
      for (int s = 0; s < machine_->nranks(); ++s)
        if (machine_->cluster_of(s) != cluster && !machine_->tombstoned(s))
          outside.push_back(s);
      send_cluster_rollback(cluster, members, outside);
    } else {
      // Peer sets are computed here, at announce time, not when the restore
      // was planned: a peer tombstoned by an overlapping permanent failure at
      // plan time may have respawned on a spare since and must still hear the
      // rollback. Peers still tombstoned now are covered by their own
      // cluster's overlapping-recovery re-announce below when they restart.
      for (int r : members) send_rollbacks_from(r, rollback_peers_of(r));
    }
    // Overlapping recoveries: clusters that rolled back earlier re-announce
    // to the ranks we just restarted, so replays lost to this crash re-run.
    // Not gated on the recovery record being open: a cluster can be caught
    // up by the op-counter measure yet still owed messages it had not
    // consumed before its own failure. Rollback is idempotent (window
    // filtering + per-incarnation queuing + duplicate drops), so
    // re-announcing from every past-rollback cluster is safe.
    for (int other : recovering_clusters_) {
      if (other == cluster) continue;
      if (machine_->config().aggregate_rollbacks) {
        send_cluster_rollback(other, machine_->ranks_in_cluster(other),
                              members);
        continue;
      }
      for (int rr : machine_->ranks_in_cluster(other)) {
        std::set<int> again;
        for (int m : members)
          if (rollback_peers_of(rr).count(m)) again.insert(m);
        if (!again.empty()) send_rollbacks_from(rr, again);
      }
    }
  });

  if (rebuilds.empty()) {
    for (const ckpt::RestorePlan& plan : direct_plans)
      staging_.note_restore(plan);
    machine_->engine().after(machine_->config().restart_delay + read_cost,
                             [finish] { (*finish)(); });
    return;
  }
  // XOR rebuilds stream surviving fragments over the real network to the
  // replacement nodes; the respawn waits for the slowest member (direct
  // reads overlap the rebuild window).
  const sim::Time start = machine_->engine().now();
  auto remaining = std::make_shared<int>(static_cast<int>(rebuilds.size()));
  auto failed = std::make_shared<bool>(false);
  auto directs = std::make_shared<std::vector<ckpt::RestorePlan>>(
      std::move(direct_plans));
  for (int r : rebuilds) {
    staging_.execute_restore(
        r, epoch,
        [this, cluster, members, failure_time, targets, epoch, read_cost,
         start, remaining, failed, directs, finish](bool ok) {
          if (!ok) *failed = true;
          if (--*remaining != 0) return;
          if (*failed) {
            // A rebuild lost its last reconstruction path mid-read (a second
            // in-group failure): re-select one epoch lower — the retention
            // floor guarantees an older PFS-resident epoch exists. The
            // abandoned pass's direct reads never happened; their metrics
            // were never recorded.
            select_and_restore(cluster, members, failure_time, targets,
                               epoch - 1);
            return;
          }
          for (const ckpt::RestorePlan& plan : *directs)
            staging_.note_restore(plan);
          const sim::Time rebuilt = machine_->engine().now() - start;
          const sim::Time residual = std::max(0.0, read_cost - rebuilt);
          machine_->engine().after(
              machine_->config().restart_delay + residual,
              [finish] { (*finish)(); });
        });
  }
}

void SpbcProtocol::on_rank_killed(int victim) {
  // Process-only failures (FailureKind::kProcessOnly) kill the cluster's
  // processes but leave node-local storage intact: restart re-reads LOCAL
  // copies instead of rebuilding from partners. The severity was recorded
  // per cluster at the crash instant (on_failure_injected), so both the
  // victim's kill and the peers' detection-time kills consult it here.
  const int cluster = machine_->cluster_of(victim);
  if (static_cast<size_t>(cluster) < storage_survives_.size() &&
      storage_survives_[static_cast<size_t>(cluster)] != 0) {
    return;
  }
  // A permanently-dead rank's OLD node was already invalidated at the crash
  // instant (on_failure_injected), before the elastic rebind: its current
  // node_of is the replacement, whose storage is intact.
  if (machine_->tombstoned(victim)) return;
  // The process died with its node (cluster failures take whole nodes down —
  // node colocation is enforced): LOCAL snapshot copies of the node's
  // residents and PARTNER copies hosted there are gone, and drains reading
  // from them will abort. Residency is keyed by the PHYSICAL binding.
  staging_.invalidate_node(machine_->node_of(victim));
}

void SpbcProtocol::restore_rank(int r, uint64_t epoch) {
  mpi::Rank& rank = machine_->rank(r);
  rank.reset_for_restart();
  // Any replay this rank was performing for another cluster dies with the
  // rollback (the log is about to be replaced); the peers will re-announce.
  replayers_[static_cast<size_t>(r)].reset();
  // Snapshots and captures above the committed epoch belong to a wave that
  // never finished; re-execution will redo that wave from scratch.
  store_.drop_epochs_above(r, epoch);
  staging_.drop_epochs_above(r, epoch);
  // A facade session torn open by the crash must not leak into the restored
  // epoch: the session aborts, and the committed regions are re-loaded from
  // the snapshot's app bytes by the state handlers on respawn (empty for a
  // sigma_0 restore — epoch 0 carries no app bytes).
  auto& fs = facade_[static_cast<size_t>(r)];
  fs.in_session = false;
  fs.restart_loaded = false;
  fs.staged.clear();
  fs.regions.clear();
  auto& cs = ckpt_[static_cast<size_t>(r)];
  if (epoch == 0) {
    // No committed checkpoint yet: roll back to the initial state sigma_0.
    logs_[static_cast<size_t>(r)].clear();
    cs = CkptLocal{};
    cs.last_cut = machine_->engine().now();
    if (cfg_.state_model.bytes > 0)
      synth_state_[static_cast<size_t>(r)] = ckpt::make_state(cfg_.state_model, r);
    return;
  }
  // Decode the stored form: roll the delta chain forward from its full base
  // and decompress. The raw path hands back a reference without copying.
  std::vector<unsigned char> scratch;
  const std::vector<unsigned char>& bytes = store_.materialize(r, epoch, scratch);
  util::ByteReader reader(bytes);
  if (cfg_.state_model.bytes > 0) {
    std::vector<unsigned char>& buf = synth_state_[static_cast<size_t>(r)];
    buf.resize(cfg_.state_model.bytes);
    reader.get_raw(buf.data(), buf.size());
  }
  const uint64_t snap_epoch = reader.get<uint64_t>();
  SPBC_ASSERT_MSG(snap_epoch == epoch, "snapshot/epoch mismatch for rank " << r);
  cs.epoch = epoch;
  cs.snap_epoch = epoch;
  // Transient wave state restarts at the restored epoch: it is committed by
  // definition, and markers of any dropped in-flight wave died with the old
  // incarnation. Partially collected tree aggregates died with it too.
  cs.complete_sent = epoch;
  cs.wave_seen = epoch;
  cs.marker_fwd = epoch;
  cs.agg.clear();
  // The adaptive trigger restarts its clock at the restore: the restored
  // snapshot's cut is in the rolled-back past, not this incarnation's.
  cs.last_cut = machine_->engine().now();
  cs.calls = reader.get<uint64_t>();
  rank.restore_runtime(reader);
  logs_[static_cast<size_t>(r)].restore(reader);
  machine_->set_pending_app_state(r, reader.get_bytes());
  SPBC_ASSERT_MSG(reader.exhausted(), "trailing bytes in snapshot of rank " << r);
}

void SpbcProtocol::redeliver_captured(int r, uint64_t epoch) {
  if (epoch == 0) return;
  for (const ckpt::CapturedMsg& cm : store_.in_flight(r, epoch)) {
    mpi::Envelope env = cm.env;
    // Re-stamp with the restored epoch: the copy is now part of the
    // epoch's state, not a cut-crossing message to capture again.
    env.ckpt_epoch = epoch;
    machine_->rank(r).deliver_envelope(env, *cm.payload, /*payload_ready=*/true,
                                       /*sender_req=*/0);
  }
}

std::set<int> SpbcProtocol::rollback_peers_of(int r) const {
  // Section 3.1 defines a channel between every ordered pair of processes,
  // so "all outgoing inter-cluster channels" (Algorithm 1, line 19) means
  // every rank outside the cluster. Restricting to channels the checkpoint
  // has seen would lose messages a survivor sent on a brand-new channel
  // while this rank was down (e.g. the first collective after the crash):
  // that survivor would never learn it must replay.
  std::set<int> peers;
  const int my_cluster = machine_->cluster_of(r);
  for (int s = 0; s < machine_->nranks(); ++s) {
    if (machine_->cluster_of(s) == my_cluster) continue;
    // Dead-rank tombstone: a permanently-failed rank awaiting its elastic
    // rebind has no rendezvous to announce to — re-announcing Rollback at
    // it forever is the retry storm this filter removes. Its own recovery
    // re-announces in the other direction once it respawns.
    if (machine_->tombstoned(s)) continue;
    peers.insert(s);
  }
  return peers;
}

void SpbcProtocol::send_rollbacks_from(int r, const std::set<int>& peers) {
  const mpi::Rank& rank = machine_->rank(r);
  for (int p : peers) {
    // Gather this rank's received-windows for streams p -> r (all ctxs and,
    // under seq_per_tag, all tag streams).
    StreamWindows windows;
    for (const auto& [key, win] : rank.all_recv_windows())
      if (key.peer == p) windows[{key.ctx, key.stream}] = win;
    mpi::ControlMsg m;
    m.kind = mpi::ControlMsg::Kind::kRollback;
    m.src = r;
    m.dst = p;
    encode_windows(windows, m.words);
    machine_->send_control(r, p, std::move(m));
  }
}

// Aggregated Algorithm 1 lines 19-20 (MachineConfig::aggregate_rollbacks).
// The pairwise broadcast above posts one Rollback per (member, outside rank)
// pair — O(cluster x world) control messages per failure, which is what
// capped MTBF ablations at a few thousand ranks. A scalable implementation
// aggregates: members gather their restored windows to the cluster leader
// (free here — the serial recovery event already holds every member's
// restored state; the real gather is an intra-cluster reduction subsumed in
// restart_delay) and the leader posts ONE kClusterRollback per target,
// carrying only the members' windows for that destination (almost always
// none: a rank holds windows for a handful of peers). Replies shrink the
// same way — a peer posts lastMessage only toward members it actually holds
// received-windows for — so the members' stale LS suppression toward every
// target is wiped up front here, where the pairwise path relies on the
// always-sent reply's clear-then-install.
void SpbcProtocol::send_cluster_rollback(int cluster,
                                         const std::vector<int>& members,
                                         const std::vector<int>& targets) {
  SPBC_ASSERT(!members.empty());
  const int leader = *std::min_element(members.begin(), members.end());
  const std::set<int> target_set(targets.begin(), targets.end());
  auto is_target = [&target_set](int peer) {
    return target_set.count(peer) != 0;
  };
  // dst -> member -> that member's restored windows for streams dst -> member.
  std::map<int, std::map<int, StreamWindows>> by_dst;
  for (int r : members) {
    mpi::Rank& rank = machine_->rank(r);
    rank.clear_peer_received_if(is_target);
    for (const auto& [key, win] : rank.all_recv_windows()) {
      if (!is_target(key.peer)) continue;
      by_dst[key.peer][r][{key.ctx, key.stream}] = win;
    }
  }
  for (int dst : targets) {
    mpi::ControlMsg m;
    m.kind = mpi::ControlMsg::Kind::kClusterRollback;
    m.src = leader;
    m.dst = dst;
    m.words.push_back(static_cast<uint64_t>(cluster));
    auto it = by_dst.find(dst);
    m.words.push_back(it == by_dst.end() ? 0 : it->second.size());
    if (it != by_dst.end()) {
      for (const auto& [member, windows] : it->second) {
        m.words.push_back(static_cast<uint64_t>(member));
        encode_windows(windows, m.words);
      }
    }
    machine_->send_control(leader, dst, std::move(m));
  }
}

void SpbcProtocol::handle_rollback(mpi::Rank& receiver, const mpi::ControlMsg& msg) {
  const int me = receiver.rank();
  const int peer = msg.src;  // the recovering rank
  size_t pos = 0;
  StreamWindows peer_windows = decode_windows(msg.words, pos);

  // The Rollback carries the peer's COMPLETE restored received-windows —
  // replace our LS-suppression state with it. Without the refresh, a rank
  // that itself rolled back earlier keeps suppression learned from the
  // peer's PRE-crash state: it would keep skipping re-sends the peer no
  // longer holds, and if those sends were not yet re-logged when this
  // Rollback arrived, nothing would ever deliver them (observed as a
  // deadlock under repeated failures). The reset must cover streams ABSENT
  // from the announcement too: a peer restored to the initial state (or an
  // epoch predating a stream) announces no window for it, and stale
  // suppression left behind would silently drop the re-executed sends.
  receiver.clear_peer_received(peer);
  for (const auto& [key, win] : peer_windows) {
    receiver.send_state(peer, key.first, key.second == -1 ? 0 : key.second)
        .peer_received = win;
  }

  // Line 22: reply with what we already received on streams peer -> me, so
  // the recovering rank can skip those sends (LS suppression).
  StreamWindows mine;
  for (const auto& [key, win] : receiver.all_recv_windows())
    if (key.peer == peer) mine[{key.ctx, key.stream}] = win;
  mpi::ControlMsg reply;
  reply.kind = mpi::ControlMsg::Kind::kLastMessage;
  reply.src = me;
  reply.dst = peer;
  encode_windows(mine, reply.words);
  machine_->send_control(me, peer, std::move(reply));

  // Rendezvous state tied to the peer's old incarnation will never complete:
  // drop its pending RTSs from the unexpected queue (matching one would CTS
  // into the void) and rewind receptions already matched to one.
  receiver.match_engine().purge_pending_rts_from(peer);
  receiver.rewind_pending_from(peer);

  // Our own sends to the peer that were caught mid-rendezvous: the replayer
  // completes their application requests when the logged copies land.
  std::map<std::pair<int, uint64_t>, std::function<void()>> orphan_done;
  for (auto& orphan : machine_->take_rendezvous_to(peer, me)) {
    orphan_done[{orphan.env.ctx, orphan.env.seqnum}] = std::move(orphan.on_complete);
  }

  // Lines 23-24: replay logged messages the peer does not hold, in log
  // order, under the pre-post window.
  replayers_[static_cast<size_t>(me)].enqueue_for_peer(
      logs_[static_cast<size_t>(me)], peer, peer_windows, std::move(orphan_done));
  receiver.wake();
}

// Receiver side of the aggregated announce: semantically the pairwise
// handle_rollback above unrolled over every member of the recovering
// cluster, but each scan over this rank's state (send states, receive
// windows, sender log, rendezvous rows, matching queues) happens once per
// announce instead of once per member — without that batching a 16k-rank
// recovery would still walk each receiver's log 2048 times.
void SpbcProtocol::handle_cluster_rollback(mpi::Rank& receiver,
                                           const mpi::ControlMsg& msg) {
  const int me = receiver.rank();
  size_t pos = 0;
  const int cluster = static_cast<int>(msg.words.at(pos++));
  const uint64_t nmembers = msg.words.at(pos++);
  std::map<int, StreamWindows> windows_by_member;
  for (uint64_t i = 0; i < nmembers; ++i) {
    const int member = static_cast<int>(msg.words.at(pos++));
    windows_by_member[member] = decode_windows(msg.words, pos);
  }
  auto in_cluster = [this, cluster](int peer) {
    return machine_->cluster_of(peer) == cluster;
  };

  // (1) Replace LS suppression learned from the members' pre-crash state
  // with their restored windows; members absent from the announce restored
  // no windows for us, so theirs drops to empty (same contract as the
  // pairwise clear-then-install).
  receiver.clear_peer_received_if(in_cluster);
  for (const auto& [member, windows] : windows_by_member) {
    for (const auto& [key, win] : windows) {
      receiver.send_state(member, key.first, key.second == -1 ? 0 : key.second)
          .peer_received = win;
    }
  }

  // (2) Reply with what we already received — only toward members we hold
  // any windows for. No reply means "received nothing": the members wiped
  // their suppression toward us before announcing.
  std::map<int, StreamWindows> mine;
  for (const auto& [key, win] : receiver.all_recv_windows()) {
    if (in_cluster(key.peer)) mine[key.peer][{key.ctx, key.stream}] = win;
  }
  for (const auto& [member, windows] : mine) {
    mpi::ControlMsg reply;
    reply.kind = mpi::ControlMsg::Kind::kLastMessage;
    reply.src = me;
    reply.dst = member;
    encode_windows(windows, reply.words);
    machine_->send_control(me, member, std::move(reply));
  }

  // (3) Rendezvous state tied to the members' old incarnations will never
  // complete: purge their stale RTSs, rewind receptions matched to one, and
  // orphan our own sends caught mid-handshake toward them.
  receiver.match_engine().purge_pending_rts_if(in_cluster);
  receiver.rewind_pending_if(in_cluster);
  std::map<int, std::map<std::pair<int, uint64_t>, std::function<void()>>>
      orphans_by_dst;
  for (auto& [dst, list] : machine_->take_rendezvous_to_if(in_cluster, me)) {
    for (auto& orphan : list) {
      orphans_by_dst[dst][{orphan.env.ctx, orphan.env.seqnum}] =
          std::move(orphan.on_complete);
    }
  }

  // (4) Replay logged messages the members do not hold, in log order.
  replayers_[static_cast<size_t>(me)].enqueue_for_cluster(
      logs_[static_cast<size_t>(me)], in_cluster, windows_by_member,
      std::move(orphans_by_dst));
  receiver.wake();
}

void SpbcProtocol::handle_last_message(mpi::Rank& receiver, const mpi::ControlMsg& msg) {
  // Lines 25-26: install the peer's received-windows as our suppression
  // state for streams me -> peer. The stream id doubles as the tag in
  // seq_per_tag mode and is -1 otherwise, matching stream_of(). As with
  // Rollback, the reply enumerates the peer's complete receive state, so
  // streams it does not mention must drop any stale suppression.
  size_t pos = 0;
  StreamWindows windows = decode_windows(msg.words, pos);
  receiver.clear_peer_received(msg.src);
  for (auto& [key, win] : windows) {
    receiver.send_state(msg.src, key.first, key.second == -1 ? 0 : key.second)
        .peer_received = std::move(win);
  }
  receiver.wake();
}

void SpbcProtocol::on_control(mpi::Rank& receiver, const mpi::ControlMsg& msg) {
  auto& cs = ckpt_[static_cast<size_t>(receiver.rank())];
  switch (msg.kind) {
    case mpi::ControlMsg::Kind::kRollback:
      handle_rollback(receiver, msg);
      break;
    case mpi::ControlMsg::Kind::kLastMessage:
      handle_last_message(receiver, msg);
      break;
    case mpi::ControlMsg::Kind::kClusterRollback:
      handle_cluster_rollback(receiver, msg);
      break;
    case mpi::ControlMsg::Kind::kCkptMarker:
      // A cluster peer cut epoch msg.words[0]. If this member has not, it
      // joins the wave at its next maybe_checkpoint() call (nothing blocks
      // on the marker — the wave stays non-blocking).
      cs.wave_seen = std::max(cs.wave_seen, msg.words.at(0));
      if (machine_->config().tree_ckpt_markers)
        flood_wave_marker(receiver.rank(), msg.words.at(0), msg.src);
      break;
    case mpi::ControlMsg::Kind::kCkptComplete: {
      // A tree child's aggregate for words[0]: union its covered member set
      // into ours and forward when our own subtree is complete.
      const uint64_t epoch = msg.words.at(0);
      if (epoch <= wave_of(machine_->cluster_of(receiver.rank())).committed)
        break;  // stale report from a superseded wave
      auto& agg = cs.agg[epoch];
      const uint64_t n = msg.words.at(1);
      for (uint64_t i = 0; i < n; ++i)
        agg.covered.insert(static_cast<int>(msg.words.at(2 + i)));
      if (cfg_.gc_logs) {
        // Piggybacked GC windows of the covered members: [rank, len,
        // words...] blocks after the member list (idempotent under re-sent
        // aggregates, like the covered-set union).
        size_t pos = 2 + n;
        while (pos < msg.words.size()) {
          const int m = static_cast<int>(msg.words.at(pos++));
          const uint64_t len = msg.words.at(pos++);
          std::vector<uint64_t>& blob = agg.windows[m];
          blob.assign(msg.words.begin() + static_cast<int64_t>(pos),
                      msg.words.begin() + static_cast<int64_t>(pos + len));
          pos += len;
        }
      }
      try_forward_aggregate(receiver.rank(), epoch);
      break;
    }
    case mpi::ControlMsg::Kind::kCkptCommit:
      // The wave's down-sweep: the member learns its epoch committed and
      // discards the local state the commit supersedes — down to the
      // retention floor (words[1]), which lags the committed epoch under
      // async staging until the PFS flush catches up.
      cs.epoch = std::max(cs.epoch, msg.words.at(0));
      {
        // Chain clamp (see commit_epoch): the store may retain epochs below
        // the nominal floor to back a delta head; staging mirrors it.
        const uint64_t eff =
            store_.prune_epochs_below(receiver.rank(), msg.words.at(1));
        staging_.prune_epochs_below(receiver.rank(), eff);
      }
      maybe_spill_captures(receiver.rank());
      break;
    default:
      SPBC_UNREACHABLE("unhandled control message kind in SpbcProtocol");
  }
}

// ---------------------------------------------------------------------------
// Online repartitioning: the quiescence bridge (DESIGN.md §14)
// ---------------------------------------------------------------------------

void SpbcProtocol::schedule_repartition() {
  machine_->engine().after_serial(cfg_.control.repartition_period, [this] {
    // Stop when the machine wound down (same discipline as the scrub wave):
    // run() ends only once the event queues drain.
    if (machine_->engine().live_task_count() == 0) return;
    repartition_tick();
    schedule_repartition();
  });
}

void SpbcProtocol::repartition_tick() {
  if (migration_.active) {
    try_flip_migration();
  } else {
    try_announce_migration();
  }
}

bool SpbcProtocol::cluster_quiescent(int cluster) const {
  const uint64_t committed = committed_epoch(cluster);
  for (int r : machine_->ranks_in_cluster(cluster)) {
    const auto& cs = ckpt_[static_cast<size_t>(r)];
    if (cs.snap_epoch != committed || cs.epoch != committed) return false;
  }
  return true;
}

void SpbcProtocol::try_announce_migration() {
  if (!restart_pending_.empty()) return;
  // Without a durable anchor the flip's fallback floor cannot be guaranteed:
  // under sync LOCAL/PARTNER storage migrations never run (documented
  // degradation); kNone (in-memory store) waives durability entirely.
  if (cfg_.storage != ckpt::StorageLevel::kNone &&
      cfg_.storage != ckpt::StorageLevel::kPfs) {
    return;
  }
  const int n = machine_->nranks();
  const int nclusters = machine_->nclusters();
  if (nclusters <= 1) return;
  std::vector<int> cluster_of(static_cast<size_t>(n));
  std::vector<int> unit_of(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    if (machine_->tombstoned(r)) return;  // elastic recovery in progress
    cluster_of[static_cast<size_t>(r)] = machine_->cluster_of(r);
    unit_of[static_cast<size_t>(r)] = machine_->node_of(r);
  }
  // After a shrunk restart two clusters can share a physical node; unit-
  // granular moves are ill-defined there, so the repartitioner stands down.
  std::vector<int> owner(
      static_cast<size_t>(machine_->topology().total_nodes()), -1);
  for (int r = 0; r < n; ++r) {
    int& o = owner[static_cast<size_t>(unit_of[static_cast<size_t>(r)])];
    if (o == -1) {
      o = cluster_of[static_cast<size_t>(r)];
    } else if (o != cluster_of[static_cast<size_t>(r)]) {
      return;
    }
  }
  clustering::CommGraph graph =
      clustering::CommGraph::from_traffic(n, machine_->traffic());
  clustering::RepartitionConfig rc;
  rc.max_moves = cfg_.control.repartition_max_moves < 1
                     ? 1
                     : cfg_.control.repartition_max_moves;
  const std::vector<clustering::NodeMove> moves =
      clustering::StreamingRepartitioner(rc).plan(graph, cluster_of, unit_of,
                                                  nclusters);
  if (moves.empty()) return;
  // The bridge carries ONE unit at a time; later planned moves are recomputed
  // by the next announce against the post-flip map (their gains assumed the
  // earlier moves already applied).
  const clustering::NodeMove& mv = moves.front();
  if (!cluster_quiescent(mv.from) || !cluster_quiescent(mv.to)) return;
  migration_.active = true;
  migration_.ranks = mv.ranks;
  migration_.unit = mv.unit;
  migration_.from = mv.from;
  migration_.to = mv.to;
  migration_.boundary_a = wave_of(mv.from).committed + 1;
  migration_.pin_b = wave_of(mv.to).committed + 1;
  // Force the anchor epochs to full staging depth and pin them against
  // pruning until the flip consumes them.
  forced_pfs_epoch_[mv.from] = migration_.boundary_a;
  forced_pfs_epoch_[mv.to] = migration_.pin_b;
}

void SpbcProtocol::try_flip_migration() {
  const int a = migration_.from;
  const int b = migration_.to;
  for (int r : migration_.ranks)
    if (machine_->tombstoned(r)) return;  // mid elastic rebind; retry later
  if (restart_pending_.count(a) || restart_pending_.count(b)) return;
  const uint64_t boundary = migration_.boundary_a;
  const uint64_t pin = migration_.pin_b;
  if (wave_of(a).committed < boundary || wave_of(b).committed < pin) return;
  if (!cluster_quiescent(a) || !cluster_quiescent(b)) return;
  // Copies: the flip below migrates ranks between the two lists.
  const std::vector<int> a_members = machine_->ranks_in_cluster(a);
  const std::vector<int> b_members = machine_->ranks_in_cluster(b);
  if (staging_.enabled()) {
    // The flip's fallback guarantees rest on durable anchors: boundary_a for
    // the shrinking cluster (post-flip it can never be forced below it),
    // pin_b for everyone the movers join in B.
    for (int r : a_members)
      if ((staging_.levels(r, boundary) & ckpt::kAtPfs) == 0) return;
    for (int r : b_members)
      if ((staging_.levels(r, pin) & ckpt::kAtPfs) == 0) return;
  }
  // Every pre-cut intra send must have landed: the flip reclassifies the
  // movers' channels, and an intra-accounted send completing after it would
  // corrupt the drain bookkeeping the wave commit rests on.
  for (int r : a_members)
    if (machine_->outstanding_intra_sends(r) != 0) return;

  const uint64_t committed_b = wave_of(b).committed;
  const sim::Time now = machine_->engine().now();
  for (int r : migration_.ranks) {
    // Keep exactly the boundary epoch, renumbered into B's epoch space; the
    // rest of the mover's checkpoint history belongs to A and leaves with
    // the membership. B's fallback can then never pick an epoch the mover
    // lacks: the walk lands on pin_b, durable for every member by the
    // precondition above.
    store_.drop_epochs_above(r, boundary);
    // The boundary epoch was forced to a full capture at save time, so the
    // chain clamp is a no-op here and the rename below re-keys a
    // self-contained snapshot.
    const uint64_t eff = store_.prune_epochs_below(r, boundary);
    store_.rename_epoch(r, boundary, pin);
    staging_.drop_epochs_above(r, boundary);
    staging_.prune_epochs_below(r, eff);
    staging_.rename_epoch(r, boundary, pin);
    auto& cs = ckpt_[static_cast<size_t>(r)];
    cs.epoch = committed_b;
    cs.snap_epoch = committed_b;
    cs.complete_sent = committed_b;
    cs.wave_seen = committed_b;
    cs.marker_fwd = committed_b;
    cs.agg.clear();
    cs.last_cut = now;
    machine_->migrate_rank(r, b);
  }
  // Partner placement memos are keyed by the cluster layout; grouped schemes
  // pin their groups (logical topology) and stay valid.
  staging_.on_topology_change();
  forced_pfs_epoch_.erase(a);
  forced_pfs_epoch_.erase(b);
  control_.note_repartition(static_cast<int>(migration_.ranks.size()));
  migration_ = Migration{};
}

void SpbcProtocol::on_rank_start(mpi::Rank& rank, bool restarted) {
  if (!restarted) return;
  // Rollback announcements were already sent from the recovery orchestration
  // (event context) at respawn time; nothing to do in the fiber.
  (void)rank;
}

}  // namespace spbc::core
