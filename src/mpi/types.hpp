#pragma once
// Core message-passing types shared by the simmpi runtime and the SPBC
// protocol layer.
//
// A message is identified — exactly as in Section 3.3 of the paper — by the
// tuple {src, dst, comm, seqnum} plus its payload; the protocol additionally
// stamps a (pattern_id, iteration_id) tuple used by the id-based matching of
// Section 4.3.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace spbc::mpi {

/// Wildcards (match the MPI standard's semantics).
constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

/// Tag values at or above this base are reserved for internal collectives.
constexpr int kCollectiveTagBase = 1 << 24;

/// Pattern identifier attached to every message and reception request
/// (Section 5.2.1). Applications outside a declared pattern use the default
/// pattern {0, 0}, whose iteration never advances.
struct PatternTag {
  uint32_t pattern = 0;
  uint32_t iteration = 0;

  bool operator==(const PatternTag&) const = default;
};

/// Message payload. Workloads can attach real bytes (used by correctness
/// tests to validate end-to-end content) or run "synthetic": size + an
/// app-provided content hash, with no actual allocation. Both modes exercise
/// identical protocol paths; logging costs are charged on `bytes` either way.
struct Payload {
  uint64_t bytes = 0;
  uint64_t hash = 0;
  std::vector<unsigned char> data;  // empty in synthetic mode

  bool synthetic() const { return data.empty() && bytes > 0; }

  static Payload from_bytes(const void* p, uint64_t n) {
    Payload pl;
    pl.bytes = n;
    pl.data.resize(n);
    if (n) std::memcpy(pl.data.data(), p, n);
    util::Fnv1a64 h;
    h.update(p, n);
    pl.hash = h.digest();
    return pl;
  }

  template <typename T>
  static Payload from_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return from_bytes(v.data(), v.size() * sizeof(T));
  }

  static Payload make_synthetic(uint64_t bytes, uint64_t hash) {
    Payload pl;
    pl.bytes = bytes;
    pl.hash = hash;
    return pl;
  }
};

/// Message envelope (metadata). `seqnum` is the per-channel sequence number
/// of Section 3.3: the channel is the (src, dst, comm) triple.
struct Envelope {
  int src = -1;  // world rank of sender
  int dst = -1;  // world rank of destination
  int tag = 0;
  int ctx = 0;  // communicator context id
  uint64_t seqnum = 0;
  PatternTag pid;
  uint64_t bytes = 0;
  uint64_t hash = 0;
  uint64_t uid = 0;       // globally unique id (tracing/debug)
  uint64_t lclock = 0;    // Lamport clock (piggybacked; used by the HydEE
                          // baseline to order its centralized replay)
  uint64_t ckpt_epoch = 0;  // sender's checkpoint epoch at send time — the
                            // piggybacked marker of the non-blocking
                            // intra-cluster checkpoint wave (see DESIGN.md)
  bool replayed = false;  // re-sent from a sender log during recovery
};

/// Writes `env` in its canonical checkpoint form, read back with
/// ByteReader::get<Envelope>: sizeof(Envelope) bytes with `uid` and `lclock`
/// written as 0 and the tail padding zeroed. Both fields depend on the
/// engine's shard layout — `uid` is a process-wide counter and `lclock`
/// follows the (time, shard, seq) tie order — so writing them would make
/// capture bytes, and the delta chains and encoded sizes built on them,
/// differ between layouts that run the same trajectory.
inline void put_canonical_envelope(util::ByteWriter& w, const Envelope& env) {
  // The fields up to `replayed` carry no padding (4 ints, then 8-byte
  // members), so only the tail needs zeroing. The size is part of every
  // capture's length and thus of staging costs: keep it.
  static_assert(sizeof(Envelope) == 80 && offsetof(Envelope, replayed) == 72);
  static_assert(offsetof(Envelope, lclock) == offsetof(Envelope, uid) + 8);
  unsigned char raw[sizeof(Envelope)] = {};
  std::memcpy(raw, &env, offsetof(Envelope, replayed) + sizeof(bool));
  std::memset(raw + offsetof(Envelope, uid), 0, sizeof env.uid + sizeof env.lclock);
  w.put_raw(raw, sizeof raw);
}

/// Status returned by probe/recv operations.
struct Status {
  int source = -1;
  int tag = -1;
  uint64_t bytes = 0;
};

/// Result of a completed reception.
struct RecvResult {
  int source = -1;
  int tag = -1;
  uint64_t bytes = 0;
  uint64_t hash = 0;
  std::vector<unsigned char> data;  // empty in synthetic mode

  template <typename T>
  void copy_to(std::vector<T>& out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    SPBC_ASSERT_MSG(!data.empty() || bytes == 0,
                    "copy_to on synthetic payload (" << bytes << " bytes)");
    out.resize(bytes / sizeof(T));
    if (bytes) std::memcpy(out.data(), data.data(), bytes);
  }
};

/// Identifies one directed channel in the context of a communicator.
struct ChannelKey {
  int src = -1;
  int dst = -1;
  int ctx = 0;

  auto operator<=>(const ChannelKey&) const = default;
};

/// The set of sequence numbers received on one channel, maintained as a
/// contiguous prefix plus a sparse overflow set. The sparse part is non-empty
/// only while a rendezvous payload is outstanding behind newer eager
/// messages. This generalizes Algorithm 1's scalar `LR`: recovery replays
/// exactly the complement of this set, which stays correct even when
/// reception completion is reordered within a channel (footnote 1 of the
/// paper).
class SeqWindow {
 public:
  void add(uint64_t seq) {
    SPBC_ASSERT_MSG(!contains(seq), "duplicate add of seq " << seq);
    if (seq == base_ + 1) {
      ++base_;
      // Absorb any sparse entries that became contiguous.
      auto it = sparse_.begin();
      while (it != sparse_.end() && *it == base_ + 1) {
        ++base_;
        it = sparse_.erase(it);
      }
    } else {
      sparse_.insert(seq);
    }
  }

  bool contains(uint64_t seq) const {
    return seq <= base_ || sparse_.count(seq) > 0;
  }

  /// All sequence numbers <= base() are received (no gaps).
  uint64_t base() const { return base_; }

  const std::set<uint64_t>& sparse() const { return sparse_; }

  void serialize(util::ByteWriter& w) const {
    w.put<uint64_t>(base_);
    w.put<uint64_t>(sparse_.size());
    for (uint64_t s : sparse_) w.put<uint64_t>(s);
  }

  static SeqWindow deserialize(util::ByteReader& r) {
    SeqWindow win;
    win.base_ = r.get<uint64_t>();
    auto n = r.get<uint64_t>();
    for (uint64_t i = 0; i < n; ++i) win.sparse_.insert(r.get<uint64_t>());
    return win;
  }

  /// Encodes into a flat vector (for control-message payloads).
  void encode(std::vector<uint64_t>& out) const {
    out.push_back(base_);
    out.push_back(sparse_.size());
    for (uint64_t s : sparse_) out.push_back(s);
  }

  static SeqWindow decode(const std::vector<uint64_t>& in, size_t& pos) {
    SeqWindow win;
    win.base_ = in.at(pos++);
    uint64_t n = in.at(pos++);
    for (uint64_t i = 0; i < n; ++i) win.sparse_.insert(in.at(pos++));
    return win;
  }

  bool operator==(const SeqWindow&) const = default;

 private:
  uint64_t base_ = 0;
  std::set<uint64_t> sparse_;
};

/// Protocol-level control messages (out of band with respect to application
/// matching, but transported through the same network channels, so they obey
/// per-channel FIFO relative to data — Algorithm 1 sends Rollback "on cij").
struct ControlMsg {
  enum class Kind : uint8_t {
    kRts,          // rendezvous request-to-send (transport)
    kCts,          // rendezvous clear-to-send (transport)
    kRollback,     // Algorithm 1: recovering rank announces received windows
    kLastMessage,  // Algorithm 1: peer reports what it already received
    kClusterRollback,  // aggregated Rollback (MachineConfig::
                       // aggregate_rollbacks): the recovering cluster's
                       // leader announces every member's restored windows
                       // in ONE message per outside rank — O(world) control
                       // messages per failure instead of the pairwise
                       // broadcast's O(cluster x world)
    kCkptMarker,    // marker-based wave: "I snapshotted epoch E"; data
                    // messages piggyback the same information as an epoch
                    // stamp, so members never park waiting for it
    kCkptComplete,  // member -> wave root: snapshot written and every
                    // pre-cut intra-cluster send has landed
    kCkptCommit,    // root -> members: all members completed epoch E; the
                    // wave's async completion reduction
    kReplayGrantRequest,  // HydEE: ask coordinator for permission to replay
    kReplayGrant,         // HydEE: coordinator grants one replay
    kReplayAck,           // HydEE: replayed message delivered
  };

  Kind kind = Kind::kRts;
  int src = -1;
  int dst = -1;
  Envelope env;                 // for kRts/kCts: the rendezvous envelope
  uint64_t sender_req = 0;      // rendezvous request correlation id
  std::vector<uint64_t> words;  // kind-specific payload
};

}  // namespace spbc::mpi
