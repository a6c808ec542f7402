#pragma once
// Checkpoint storage.
//
// Holds per-rank snapshots keyed by checkpoint epoch. This header also
// defines the multi-level cost model in the spirit of SCR/FTI (referenced by
// the paper as the complementary line of work [3, 27]): LOCAL (node-local
// SSD), PARTNER (copy on a buddy node), PFS (parallel file system). The
// paper's measurements exclude checkpoint I/O time (Section 6.1), so
// experiment configurations default to kNone; the cost model, level
// residency and data movement belong to ckpt::StagingArea (staging.hpp).
//
// Epoch keying exists because the marker-based checkpoint wave commits
// asynchronously: while a wave for epoch E is in flight, the last committed
// epoch E-1 must stay restorable, and a failure mid-wave rolls the cluster
// back to E-1 even if some members already hold epoch-E snapshots. Under
// async staging, commit prunes only down to the staging pipeline's PFS
// frontier instead of the committed epoch: a committed epoch whose copies a
// node failure later destroys must still have an older, safer epoch to fall
// back to. The store also records, per (rank, epoch), the intra-cluster
// messages that crossed the epoch's cut (sent before the sender's snapshot,
// delivered after the receiver's) — recovery re-delivers them, because the
// restored sender will not re-send and the restored receiver has not
// received. Captures are modeled as reliably stored with the epoch's restore
// data; their live footprint is tracked per rank (with a global high-water
// mark) so protocols can bound it.
//
// Data reduction (ReductionConfig; DESIGN.md §15): the store owns the
// encoded representation. With delta encoding on, save() diffs the capture
// in fixed-size blocks against the previous epoch's (a state image by block
// version, the rest by content hash) and stores only the changed blocks;
// with compression on, the stored payload runs
// through the deterministic LZ/RLE codec once here, and every downstream
// consumer (staging fragments, PFS flushes, the control plane's Daly terms)
// sees the post-reduction size. materialize() reconstructs the logical bytes
// by walking the base-plus-deltas chain; prune_epochs_below() clamps its
// floor to the chain base of the oldest retained epoch so a delta never
// outlives its base.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "ckpt/reduction.hpp"
#include "mpi/types.hpp"
#include "sim/time.hpp"

namespace spbc::ckpt {

enum class StorageLevel : uint8_t {
  kNone,     // free (measurement mode, as in the paper's evaluation)
  kLocal,    // node-local storage
  kPartner,  // local + copy to a partner node
  kPfs,      // parallel file system
};

struct StorageCostModel {
  double local_bw = 1.0e9;     // bytes/s per node
  /// Effective buddy-copy bandwidth, network copy included. Remote-copy
  /// restore reads and fragment placements ride net::Network, so its only
  /// reader is the control plane's redundancy-hop cost.
  double partner_bw = 0.8e9;
  double pfs_bw = 50.0e6;      // per-process share of PFS bandwidth
  sim::Time base_latency = sim::msec(2.0);    // PARTNER/PFS setup cost
  sim::Time local_latency = sim::usec(50.0);  // node-local device latency —
                                              // the short stall async staging
                                              // charges the fiber

  sim::Time write_time(StorageLevel level, uint64_t bytes) const;
  sim::Time read_time(StorageLevel level, uint64_t bytes) const;
};

/// A capture as the protocol hands it to Store::save. Its logical bytes are
/// the synthesized `image` (none when null) followed by `bytes`: a rank's
/// state image rides by reference, so save() synthesizes only the image
/// blocks it stores and hashes none of them when it can diff the image by
/// block version. The image must stay valid for the save() call only; the
/// store keeps its block versions, not the image.
struct Snapshot {
  sim::Time taken_at = 0;
  uint64_t epoch = 0;  // checkpoint wave number
  std::vector<unsigned char> bytes;
  const StateImage* image = nullptr;
};

/// What save() actually wrote: the caller stages `stored_bytes` (the encoded
/// size — what every downstream level ships) and threads `chain_base`
/// through the staging entry so restore planning knows the epoch's delta
/// chain.
struct SaveInfo {
  uint64_t raw_bytes = 0;     // logical (decoded) capture size
  uint64_t stored_bytes = 0;  // encoded payload size actually written
  /// Epoch of the full capture anchoring this epoch's chain (== the saved
  /// epoch when the capture is full).
  uint64_t chain_base = 0;
  bool full = true;
  uint32_t blocks_total = 0;
  uint32_t blocks_changed = 0;  // == blocks_total for a full capture
};

/// A snapshot as the store keeps it: the encoded payload plus the header a
/// restore needs to decode it. With reduction off, `enc` IS the logical
/// bytes (no copy, no header overhead beyond the empty vectors).
struct StoredSnapshot {
  sim::Time taken_at = 0;
  uint64_t epoch = 0;
  uint64_t raw_size = 0;    // logical size (decode target)
  uint64_t chain_base = 0;  // == epoch for a full capture
  bool compressed = false;  // enc ran through the codec
  uint32_t block_bytes = 0; // delta granularity; 0 = not block-encoded
  /// Delta payload layout: enc decodes to the concatenation of the blocks in
  /// `changed` (ascending), each block_bytes long except a short tail block.
  std::vector<uint32_t> changed;
  /// Per-block hashes of the blocks not diffed by version — the baseline
  /// the next epoch diffs them against. They cover the runtime tail (the
  /// last block_hashes.size() blocks) when the image rode by reference,
  /// and every block otherwise. Present whenever delta
  /// encoding is on (full captures included).
  std::vector<uint64_t> block_hashes;
  /// StateImage::versions() of the capture's image (empty without one):
  /// the next epoch diffs the image by them, and restore rebuilds the image
  /// from them and checks the decoded bytes.
  std::vector<uint64_t> image_versions;
  std::vector<unsigned char> enc;

  bool full() const { return chain_base == epoch; }
};

/// One intra-cluster message that crossed a checkpoint cut, captured at the
/// receiver for restore-time redelivery. The payload is shared: a message
/// that crossed several cuts is recorded under each epoch but its bytes are
/// stored once.
struct CapturedMsg {
  mpi::Envelope env;
  std::shared_ptr<const mpi::Payload> payload;
  /// Pushed out of capture memory onto LOCAL storage (still redeliverable;
  /// its bytes no longer count against the live capture footprint).
  bool spilled = false;
};

class Store {
 public:
  /// Pre-sizes the per-rank rows. Protocols call this at attach time; under
  /// the threaded shard executor rows must exist before concurrent shard
  /// events touch them (row growth is a structural mutation). Rows also grow
  /// lazily for callers that never attach (unit tests) — single-threaded
  /// contexts only.
  void reserve_ranks(int nranks) {
    if (static_cast<size_t>(nranks) > rows_.size())
      rows_.resize(static_cast<size_t>(nranks));
  }

  /// Configure data reduction (attach time, before the first save; the
  /// defaults keep the raw pre-reduction path bit-for-bit).
  void set_reduction(ReductionConfig rc) { reduction_ = rc; }
  const ReductionConfig& reduction() const { return reduction_; }

  /// Saves `snap` under (rank, snap.epoch), replacing a same-epoch snapshot.
  /// Applies the configured reduction: delta-encodes against the previous
  /// epoch when eligible, then compresses. When delta encoding is on and a
  /// referenced image's size is a multiple of the block size, its blocks
  /// are diffed by version, and the stored ones are synthesized once,
  /// straight into a reused per-thread payload buffer; otherwise it is
  /// synthesized in front of `bytes` first and hashed with them. The stored form is the same
  /// either way. `force_full` pins a full capture regardless of
  /// eligibility — migration boundary/pin epochs must be renameable, and a
  /// renamed delta would orphan its chain.
  SaveInfo save(int rank, Snapshot snap, bool force_full = false);
  bool has(int rank) const;
  /// Highest-epoch snapshot held for `rank`.
  const StoredSnapshot& latest(int rank) const;
  bool has_epoch(int rank, uint64_t epoch) const;
  const StoredSnapshot& at_epoch(int rank, uint64_t epoch) const;

  /// Reconstructs the logical snapshot bytes of (rank, epoch): decompresses
  /// and walks the base-plus-deltas chain when the capture is reduced (the
  /// whole chain must still be stored — prune_epochs_below guarantees it).
  /// Returns a reference either into the store (raw full capture: no copy —
  /// the pre-reduction restore path) or to `scratch`.
  const std::vector<unsigned char>& materialize(
      int rank, uint64_t epoch, std::vector<unsigned char>& scratch) const;

  /// Epoch-consistent restore bookkeeping: a rollback to `epoch` invalidates
  /// any higher, uncommitted epoch (snapshots and captures); a committed
  /// wave supersedes everything below it.
  void drop_epochs_above(int rank, uint64_t epoch);
  /// Prunes below `epoch`, clamped to the chain base of the oldest epoch
  /// retained: a delta capture keeps its base (and intermediate deltas)
  /// alive past the nominal floor. Returns the effective floor applied —
  /// the caller mirrors it into the staging residency so chain elements
  /// keep their copies too.
  uint64_t prune_epochs_below(int rank, uint64_t epoch);

  /// Migration flip (serial context): re-keys the rank's epoch-`from`
  /// snapshot and captures to epoch number `to`, so state carried across a
  /// cluster migration lines up with the destination cluster's epoch
  /// sequence. No-op when no epoch-`from` state exists. The snapshot must be
  /// a full capture (the flip forces boundary/pin epochs full at save time);
  /// renaming a delta would orphan it from its chain.
  void rename_epoch(int rank, uint64_t from, uint64_t to);

  /// In-flight capture for the marker-based wave: records a message that
  /// crossed the cuts of epochs [first_epoch, last_epoch] at `rank`, in
  /// arrival order (per-channel FIFO makes arrival order seqnum order on
  /// every channel). One payload buffer is shared across the epochs.
  /// Returns the rank's live capture footprint in bytes after the record,
  /// so the caller can react to memory pressure.
  uint64_t record_in_flight(int rank, uint64_t first_epoch, uint64_t last_epoch,
                            const mpi::Envelope& env, const mpi::Payload& payload);
  const std::vector<CapturedMsg>& in_flight(int rank, uint64_t epoch) const;

  /// Bytes of captures currently retained for `rank` (all epochs; a payload
  /// recorded under several epochs counts once per epoch — the retention
  /// upper bound).
  uint64_t capture_live_bytes(int rank) const;
  /// Highest per-rank live capture footprint ever observed (the in-flight
  /// capture memory bound metric; see ROADMAP).
  uint64_t capture_hwm_bytes() const {
    uint64_t hwm = 0;
    for (const Row& r : rows_) hwm = r.capture_hwm > hwm ? r.capture_hwm : hwm;
    return hwm;
  }

  /// Spills the oldest retained captures of `rank` (ascending epoch) to
  /// LOCAL storage until the live footprint drops to `target_bytes`: used
  /// when capture-bound pressure cannot prune past the PFS retention floor
  /// (a slow PFS would otherwise stall reclamation indefinitely). Spilled
  /// captures stay redeliverable but leave capture memory. Returns the
  /// bytes spilled; the caller charges the node-local device.
  uint64_t spill_captures(int rank, uint64_t target_bytes);
  uint64_t captures_spilled() const {
    return sum_rows(&Row::captures_spilled);
  }
  uint64_t capture_spilled_bytes() const {
    return sum_rows(&Row::capture_spilled_bytes);
  }

  /// Encoded bytes actually written (== logical bytes with reduction off).
  uint64_t total_bytes_written() const { return sum_rows(&Row::bytes_written); }
  /// Logical capture bytes presented to save() (the reduction baseline).
  uint64_t total_raw_bytes() const { return sum_rows(&Row::raw_bytes); }
  uint64_t snapshots_taken() const { return sum_rows(&Row::snapshots); }
  /// Captures stored as block deltas (vs full).
  uint64_t delta_snapshots() const { return sum_rows(&Row::delta_snapshots); }
  /// Cumulative count of cut-crossing messages captured (diagnostics).
  uint64_t in_flight_captured() const {
    return sum_rows(&Row::in_flight_captured);
  }

 private:
  ReductionConfig reduction_{};

  // All storage and counters live in one row per rank: a row is only ever
  // mutated from its rank's shard (saves, captures, per-rank prunes) or from
  // serial recovery context, so concurrent shard threads never share one.
  // Whole-store counters are summed over rows on read.
  struct Row {
    std::map<uint64_t, StoredSnapshot> snaps;           // epoch -> snapshot
    std::map<uint64_t, std::vector<CapturedMsg>> caps;  // epoch -> captures
    uint64_t capture_live = 0;
    uint64_t bytes_written = 0;
    uint64_t raw_bytes = 0;
    uint64_t snapshots = 0;
    uint64_t delta_snapshots = 0;
    uint64_t in_flight_captured = 0;
    uint64_t capture_hwm = 0;
    uint64_t captures_spilled = 0;
    uint64_t capture_spilled_bytes = 0;
  };
  Row& row(int rank) {
    if (static_cast<size_t>(rank) >= rows_.size()) reserve_ranks(rank + 1);
    return rows_[static_cast<size_t>(rank)];
  }
  const Row* row(int rank) const {
    return static_cast<size_t>(rank) < rows_.size()
               ? &rows_[static_cast<size_t>(rank)]
               : nullptr;
  }
  static void release_captures(Row& r, uint64_t bytes);
  /// Decoded payload of one stored snapshot (no chain walk): the stored
  /// bytes themselves when uncompressed, else decoded into `buf`.
  static std::span<const unsigned char> decode_payload(
      const StoredSnapshot& s, std::vector<unsigned char>& buf);

  uint64_t sum_rows(uint64_t Row::*field) const {
    uint64_t total = 0;
    for (const Row& r : rows_) total += r.*field;
    return total;
  }

  std::vector<Row> rows_;
};

}  // namespace spbc::ckpt
