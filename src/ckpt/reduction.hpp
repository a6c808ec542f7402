#pragma once
// Checkpoint data reduction: configuration and the synthetic state-evolution
// model that makes it measurable.
//
// Snapshot bytes are the currency of the whole LOCAL -> PARTNER -> PFS
// pipeline: every redundancy share, PFS flush, scrub probe and rebuild read
// pays them again, so shrinking the payload compounds through every level.
// Two reductions stack (both off by default — the raw path is bit-for-bit
// the pre-reduction pipeline):
//
//   * Block deltas: a capture is split into fixed-size blocks, and only the
//     blocks that changed since the previous epoch's capture are stored. A
//     state image's blocks are diffed by version, the rest of the capture
//     by content hash. Restore walks the base-plus-deltas chain; a
//     configurable full-capture stride bounds the chain so retention (and
//     restore reads) can't grow without bound.
//   * Stage-boundary compression: the deterministic LZ/RLE codec
//     (util/codec.hpp) runs once at LOCAL, and PARTNER copies, redundancy
//     shares and PFS flushes all ship the compressed bytes (SCR's
//     compress-once-at-cache discipline).
//
// The encoding lives in ckpt::Store (the blob owner); staging and the
// control plane only ever see post-reduction sizes. See DESIGN.md §15.

#include <cstdint>
#include <span>
#include <vector>

namespace spbc::ckpt {

struct ReductionConfig {
  /// Block-level delta encoding between consecutive epochs. A capture
  /// whose predecessor (epoch - 1) is still stored and whose chain is
  /// shorter than `full_stride` stores only its changed blocks; everything
  /// else is a full capture.
  bool delta = false;
  /// Delta granularity: captures are diffed in blocks of this size (the
  /// last block may be short).
  uint32_t block_bytes = 4096;
  /// Upper bound on chain length, full capture included: every
  /// `full_stride`-th epoch is a full capture even when deltas are small, so
  /// a restore never walks more than full_stride - 1 deltas and pruning can
  /// always converge to the PFS retention floor. 0 = unbounded (testing
  /// only); 1 = every capture full (deltas effectively off).
  uint64_t full_stride = 8;
  /// Compress the stored payload (full captures and delta payloads alike)
  /// with the deterministic LZ/RLE codec. Incompressible payloads are kept
  /// raw — the stored size never exceeds the unreduced size.
  bool compress = false;

  bool enabled() const { return delta || compress; }
};

/// Per-rank synthetic evolving application state, AMG/miniFE-style: a buffer
/// of `bytes` advanced at every checkpoint epoch by rewriting a
/// `mutation_rate` fraction of its `block_bytes` blocks with fresh
/// low-entropy content. Materialized into the snapshot stream (unlike
/// SpbcConfig::snapshot_pad_bytes, which is a pure size pad), so the
/// reduction layer sees real deltas and real compressibility. Evolution is
/// keyed by (seed, rank, epoch) only: re-executing an epoch after a rollback
/// regenerates the identical state, which keeps recovered checksums equal to
/// the failure-free run on any engine shard/thread layout.
struct StateModelConfig {
  uint64_t bytes = 0;  // 0 = model off
  uint32_t block_bytes = 4096;
  /// Fraction of blocks rewritten per epoch (>= 1 block once enabled).
  double mutation_rate = 0.10;
  uint64_t seed = 1;
};

/// Fills `dst[0..len)` with deterministic low-entropy content derived from
/// `seed`: constant runs of varying length with interspersed noise bytes —
/// compressible like relaxation-solver state, not like uniform noise.
void fill_synth_block(unsigned char* dst, uint64_t len, uint64_t seed);

/// The rank's epoch-0 state image.
std::vector<unsigned char> make_state(const StateModelConfig& cfg, int rank);

/// Advances `buf` from epoch - 1 to `epoch`: rewrites
/// round(mutation_rate * nblocks) (at least 1) blocks chosen by a
/// (seed, rank, epoch)-keyed PRNG. Pure in (cfg, rank, epoch, prior buf).
void evolve_state(std::vector<unsigned char>& buf, const StateModelConfig& cfg,
                  int rank, uint64_t epoch);

/// Per-block 64-bit hashes of `bytes` at `block_bytes` granularity (the last
/// block hashes its real, possibly short, length — so a size change at the
/// tail reads as a changed block). Only equality is meaningful: a changed
/// block's hash differs from its predecessor's, and any single changed byte
/// is guaranteed to show. Values depend on the host's byte order, so they
/// are never persisted or compared across processes.
std::vector<uint64_t> hash_blocks(std::span<const unsigned char> bytes,
                                  uint32_t block_bytes);

/// A rank's synthetic state image, kept as metadata instead of bytes: per
/// state block the epoch that last rewrote it (0 = make_state's content).
/// Every block's bytes are a pure function of (seed, rank, version, block),
/// so write() synthesizes any range on demand with fill_synth_block and the
/// image holds O(blocks) memory however large it is. Its bytes always equal
/// make_state followed by evolve_state over the same epochs, and two images
/// of one rank hold equal bytes wherever their versions agree, so a capture
/// diffs the image by version without synthesizing it. A capture refers to
/// the image (Snapshot::image) and the store synthesizes only what it
/// stores (DESIGN.md §15).
class StateImage {
 public:
  StateImage() = default;
  /// The rank's epoch-0 image. Synthesizes nothing.
  StateImage(const StateModelConfig& cfg, int rank);

  /// Advances to `epoch` as evolve_state does: the rewritten blocks take
  /// version `epoch`. Synthesizes nothing.
  void evolve(uint64_t epoch);
  /// Rolls back to a stored capture: adopts its block `versions`, then
  /// synthesizes the image and asserts that it equals `decoded` (the image
  /// region the capture decoded to).
  void restore(std::span<const uint64_t> versions,
               std::span<const unsigned char> decoded);

  uint64_t size() const { return cfg_.bytes; }
  /// Synthesizes image bytes [off, off + len) into `dst`.
  void write(uint64_t off, uint64_t len, unsigned char* dst) const;
  /// The whole image, synthesized.
  std::vector<unsigned char> synthesize() const;
  const std::vector<uint64_t>& versions() const { return versions_; }
  /// Ascending indices of the `block_bytes` blocks of the image (the last
  /// may be short) whose bytes differ from those of an image of this rank
  /// at `prev` versions: the blocks that overlap a state block whose
  /// version moved. Every block when `prev` holds no version per state
  /// block.
  std::vector<uint32_t> changed_blocks(std::span<const uint64_t> prev,
                                       uint32_t block_bytes) const;

 private:
  StateModelConfig cfg_{};
  int rank_ = 0;
  std::vector<uint64_t> versions_;
};

}  // namespace spbc::ckpt
