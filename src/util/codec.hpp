#pragma once
// Self-contained deterministic byte codec for checkpoint payload reduction.
//
// An LZ77 variant with a byte-aligned token format (greedy single-probe
// match finder, 64 KiB window, minimum match 4). Long constant runs — the
// dominant shape of slowly-evolving HPC state — degenerate into
// self-overlapping matches, so the codec doubles as an RLE. No entropy
// stage, no external dependencies, and no state between calls beyond
// reused per-thread scratch (the output buffer and the match table): the
// output is a pure function of the input bytes, which is what the checkpoint
// pipeline's determinism discipline requires (the same logical snapshot must
// encode to the same fragment bytes on every shard/thread layout, or scrub
// digests and the shadow-codec oracle would disagree across runs).
//
// Token format, repeated until the input is consumed:
//   token byte: high nibble = literal count, low nibble = match length - 4;
//   nibble value 15 extends with 255-coded continuation bytes. Literals
//   follow the extension bytes; a match appends a 2-byte little-endian
//   backward offset (1..65535). The final token carries literals only
//   (match nibble 0, no offset) and may be absent when the input ends on a
//   match boundary.
//
// The codec never expands silently: callers compare the encoded size against
// the raw size and keep whichever is smaller (ckpt::Store records the choice
// in the stored-snapshot header).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spbc::util::codec {

/// Deterministic LZ/RLE compression of `data[0..n)`. Round-trips exactly
/// through lz_decompress. May be larger than the input on incompressible
/// data (the caller keeps the raw bytes in that case).
std::vector<unsigned char> lz_compress(const unsigned char* data, size_t n);

inline std::vector<unsigned char> lz_compress(
    const std::vector<unsigned char>& data) {
  return lz_compress(data.data(), data.size());
}

/// Inverse of lz_compress into `out[0..out_n)`, where `out_n` is the exact
/// raw size recorded at compression time. Returns false, never reading or
/// writing outside either buffer, when the stream is damaged: a truncated
/// length or offset, an offset of 0 or beyond the bytes decoded so far, a
/// run past either buffer, or a decoded size other than `out_n`. On false
/// the contents of `out` are unspecified.
bool lz_decompress(const unsigned char* enc, size_t n, unsigned char* out,
                   size_t out_n);

/// Checked form for blobs the program wrote itself: a damaged stream
/// asserts.
std::vector<unsigned char> lz_decompress(const std::vector<unsigned char>& enc,
                                         size_t out_n);

}  // namespace spbc::util::codec
