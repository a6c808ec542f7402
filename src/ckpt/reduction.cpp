#include "ckpt/reduction.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace spbc::ckpt {

void fill_synth_block(unsigned char* dst, uint64_t len, uint64_t seed) {
  util::Pcg32 rng(seed, 0x9e3779b97f4a7c15ull);
  uint64_t pos = 0;
  while (pos < len) {
    // A constant run of 16..79 bytes, led by one noise byte: roughly the
    // entropy profile of field data between solver sweeps.
    uint64_t run = 16 + rng.next_bounded(64);
    if (run > len - pos) run = len - pos;
    const unsigned char noise = static_cast<unsigned char>(rng.next_u32());
    const unsigned char fill = static_cast<unsigned char>(rng.next_u32());
    dst[pos] = noise;
    for (uint64_t i = 1; i < run; ++i) dst[pos + i] = fill;
    pos += run;
  }
}

namespace {
uint64_t block_seed(const StateModelConfig& cfg, int rank, uint64_t epoch,
                    uint64_t block) {
  util::Fnv1a64 h;
  h.update_u64(cfg.seed);
  h.update_u64(static_cast<uint64_t>(rank));
  h.update_u64(epoch);
  h.update_u64(block);
  return h.digest();
}
}  // namespace

std::vector<unsigned char> make_state(const StateModelConfig& cfg, int rank) {
  std::vector<unsigned char> buf(cfg.bytes);
  if (cfg.bytes == 0) return buf;
  const uint32_t bb = cfg.block_bytes ? cfg.block_bytes : 4096;
  for (uint64_t off = 0; off < cfg.bytes; off += bb) {
    const uint64_t len = std::min<uint64_t>(bb, cfg.bytes - off);
    fill_synth_block(buf.data() + off, len, block_seed(cfg, rank, 0, off / bb));
  }
  return buf;
}

namespace {
// Rewrites round(mutation_rate * nblocks) (at least 1) state blocks of `buf`
// for `epoch` and reports each rewritten byte range to `on_rewrite(off, len)`.
template <typename F>
void rewrite_blocks(std::vector<unsigned char>& buf, const StateModelConfig& cfg,
                    int rank, uint64_t epoch, F&& on_rewrite) {
  if (cfg.bytes == 0) return;
  const uint32_t bb = cfg.block_bytes ? cfg.block_bytes : 4096;
  const uint64_t nblocks = (cfg.bytes + bb - 1) / bb;
  uint64_t rewrites = static_cast<uint64_t>(
      std::llround(cfg.mutation_rate * static_cast<double>(nblocks)));
  if (rewrites < 1) rewrites = 1;
  if (rewrites > nblocks) rewrites = nblocks;
  // Block choice is keyed by (seed, rank, epoch) alone — independent of
  // execution history, so a re-executed epoch mutates identically.
  util::Pcg32 rng(cfg.seed ^ (static_cast<uint64_t>(rank) * 0x5851f42d4c957f2dull),
                  epoch);
  for (uint64_t i = 0; i < rewrites; ++i) {
    const uint64_t b = rng.next_bounded(static_cast<uint32_t>(nblocks));
    const uint64_t off = b * bb;
    const uint64_t len = std::min<uint64_t>(bb, cfg.bytes - off);
    fill_synth_block(buf.data() + off, len, block_seed(cfg, rank, epoch, b));
    on_rewrite(off, len);
  }
}
}  // namespace

void evolve_state(std::vector<unsigned char>& buf, const StateModelConfig& cfg,
                  int rank, uint64_t epoch) {
  rewrite_blocks(buf, cfg, rank, epoch, [](uint64_t, uint64_t) {});
}

namespace {
constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kP3 = 0x165667b19e3779f9ull;
constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kP5 = 0x27d4eb2f165667c5ull;

uint64_t load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

uint64_t mix_word(uint64_t acc, uint64_t word) {
  return std::rotl(acc + word * kP2, 31) * kP1;
}

// One block's hash, built like xxHash64: four independent lanes take 32
// bytes per step, the remainder goes in a word and then a byte at a time,
// and a final avalanche spreads every input bit over the result. The lanes
// are seeded with the block's length. For fixed other input every step is a
// bijection of the running state, so flipping any single byte always
// changes the hash.
uint64_t hash_block(const unsigned char* p, uint64_t len) {
  const unsigned char* const end = p + len;
  uint64_t lane[4] = {len + kP1 + kP2, len + kP2, len, len - kP1};
  for (; end - p >= 32; p += 32)
    for (int l = 0; l < 4; ++l) lane[l] = mix_word(lane[l], load64(p + 8 * l));
  uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
               std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  for (; end - p >= 8; p += 8) h = std::rotl(h ^ mix_word(0, load64(p)), 27) * kP1 + kP4;
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}
}  // namespace

std::vector<uint64_t> hash_blocks(std::span<const unsigned char> bytes,
                                  uint32_t block_bytes) {
  const uint32_t bb = block_bytes ? block_bytes : 4096;
  const uint64_t n = bytes.size();
  std::vector<uint64_t> hashes((n + bb - 1) / bb);
  for (size_t b = 0; b < hashes.size(); ++b) {
    const uint64_t off = static_cast<uint64_t>(b) * bb;
    hashes[b] = hash_block(bytes.data() + off, std::min<uint64_t>(bb, n - off));
  }
  return hashes;
}

StateImage::StateImage(const StateModelConfig& cfg, int rank, uint32_t hash_block)
    : bytes_(make_state(cfg, rank)), hash_block_(hash_block) {
  if (hash_block_ != 0) hashes_ = hash_blocks(bytes_, hash_block_);
}

void StateImage::evolve(const StateModelConfig& cfg, int rank, uint64_t epoch) {
  const uint64_t hb = hash_block_;
  const uint64_t n = bytes_.size();
  rewrite_blocks(bytes_, cfg, rank, epoch, [&](uint64_t off, uint64_t len) {
    if (hb == 0) return;
    // The rewritten range may span several hash blocks (or share one with
    // other rewrites) when the state and delta block sizes differ.
    for (uint64_t h = off / hb; h * hb < off + len; ++h)
      hashes_[h] = hash_block(bytes_.data() + h * hb, std::min<uint64_t>(hb, n - h * hb));
  });
}

void StateImage::restore(util::ByteReader& reader) {
  reader.get_raw(bytes_.data(), bytes_.size());
  if (hash_block_ != 0) hashes_ = hash_blocks(bytes_, hash_block_);
}

}  // namespace spbc::ckpt
