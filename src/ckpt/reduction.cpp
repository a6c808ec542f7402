#include "ckpt/reduction.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace spbc::ckpt {

void fill_synth_block(unsigned char* dst, uint64_t len, uint64_t seed) {
  util::Pcg32 rng(seed, 0x9e3779b97f4a7c15ull);
  uint64_t pos = 0;
  while (pos < len) {
    // A constant run of 16..79 bytes, led by one noise byte: roughly the
    // entropy profile of field data between solver sweeps.
    uint64_t run = 16 + rng.next_bounded(64);
    const unsigned char noise = static_cast<unsigned char>(rng.next_u32());
    const unsigned char fill = static_cast<unsigned char>(rng.next_u32());
    if (pos + 80 <= len) {
      // A fixed 80-byte fill covers the longest run and costs no
      // length-dependent branch; what lands past this run is rewritten by
      // the runs that follow.
      std::memset(dst + pos, fill, 80);
      dst[pos] = noise;
      pos += run;
      continue;
    }
    if (run > len - pos) run = len - pos;
    dst[pos] = noise;
    for (uint64_t i = 1; i < run; ++i) dst[pos + i] = fill;
    pos += run;
  }
}

namespace {
uint32_t state_block(const StateModelConfig& cfg) {
  return cfg.block_bytes ? cfg.block_bytes : 4096;
}

uint64_t block_seed(const StateModelConfig& cfg, int rank, uint64_t epoch,
                    uint64_t block) {
  util::Fnv1a64 h;
  h.update_u64(cfg.seed);
  h.update_u64(static_cast<uint64_t>(rank));
  h.update_u64(epoch);
  h.update_u64(block);
  return h.digest();
}

// Calls `on_rewrite(block)` for each of the round(mutation_rate * nblocks)
// (at least 1) state blocks rewritten at `epoch`; a block may come twice.
template <typename F>
void for_each_rewrite(const StateModelConfig& cfg, int rank, uint64_t epoch,
                      F&& on_rewrite) {
  if (cfg.bytes == 0) return;
  const uint64_t nblocks = (cfg.bytes + state_block(cfg) - 1) / state_block(cfg);
  uint64_t rewrites = static_cast<uint64_t>(
      std::llround(cfg.mutation_rate * static_cast<double>(nblocks)));
  if (rewrites < 1) rewrites = 1;
  if (rewrites > nblocks) rewrites = nblocks;
  // Block choice is keyed by (seed, rank, epoch) alone — independent of
  // execution history, so a re-executed epoch mutates identically.
  util::Pcg32 rng(cfg.seed ^ (static_cast<uint64_t>(rank) * 0x5851f42d4c957f2dull),
                  epoch);
  for (uint64_t i = 0; i < rewrites; ++i)
    on_rewrite(static_cast<uint64_t>(rng.next_bounded(static_cast<uint32_t>(nblocks))));
}
}  // namespace

std::vector<unsigned char> make_state(const StateModelConfig& cfg, int rank) {
  std::vector<unsigned char> buf(cfg.bytes);
  const uint32_t bb = state_block(cfg);
  for (uint64_t off = 0; off < cfg.bytes; off += bb) {
    const uint64_t len = std::min<uint64_t>(bb, cfg.bytes - off);
    fill_synth_block(buf.data() + off, len, block_seed(cfg, rank, 0, off / bb));
  }
  return buf;
}

void evolve_state(std::vector<unsigned char>& buf, const StateModelConfig& cfg,
                  int rank, uint64_t epoch) {
  const uint32_t bb = state_block(cfg);
  for_each_rewrite(cfg, rank, epoch, [&](uint64_t b) {
    const uint64_t off = b * bb;
    fill_synth_block(buf.data() + off, std::min<uint64_t>(bb, cfg.bytes - off),
                     block_seed(cfg, rank, epoch, b));
  });
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

StateImage::StateImage(const StateModelConfig& cfg, int rank)
    : cfg_(cfg),
      rank_(rank),
      versions_((cfg.bytes + state_block(cfg) - 1) / state_block(cfg), 0) {}

void StateImage::write(uint64_t off, uint64_t len, unsigned char* dst) const {
  SPBC_ASSERT(off + len <= size());
  const uint64_t sb = state_block(cfg_);
  std::vector<unsigned char> part;  // a state block the range cuts
  for (uint64_t b = off / sb; b * sb < off + len; ++b) {
    const uint64_t boff = b * sb;
    const uint64_t blen = std::min<uint64_t>(sb, size() - boff);
    const uint64_t seed = block_seed(cfg_, rank_, versions_[b], b);
    const uint64_t lo = std::max(off, boff);
    const uint64_t hi = std::min(off + len, boff + blen);
    if (lo == boff && hi == boff + blen) {
      fill_synth_block(dst + (boff - off), blen, seed);
    } else {
      part.resize(blen);
      fill_synth_block(part.data(), blen, seed);
      std::memcpy(dst + (lo - off), part.data() + (lo - boff), hi - lo);
    }
  }
}

std::vector<unsigned char> StateImage::synthesize() const {
  std::vector<unsigned char> bytes(size());
  write(0, size(), bytes.data());
  return bytes;
}

void StateImage::evolve(uint64_t epoch) {
  for_each_rewrite(cfg_, rank_, epoch, [&](uint64_t b) { versions_[b] = epoch; });
}

std::vector<uint32_t> StateImage::changed_blocks(std::span<const uint64_t> prev,
                                                 uint32_t block_bytes) const {
  const uint64_t bb = block_bytes;
  std::vector<uint32_t> changed;
  if (prev.size() != versions_.size()) {
    changed.resize((size() + bb - 1) / bb);
    std::iota(changed.begin(), changed.end(), 0u);
    return changed;
  }
  // A state block may span several capture blocks, or share one with its
  // neighbours, when the state and delta block sizes differ. State blocks
  // come in ascending order, so the blocks they cover do too.
  const uint64_t sb = state_block(cfg_);
  for (uint64_t b = 0; b < versions_.size(); ++b) {
    if (versions_[b] == prev[b]) continue;
    const uint64_t last = (std::min((b + 1) * sb, size()) - 1) / bb;
    for (uint64_t c = b * sb / bb; c <= last; ++c)
      if (changed.empty() || changed.back() < c) changed.push_back(static_cast<uint32_t>(c));
  }
  return changed;
}

void StateImage::restore(std::span<const uint64_t> versions,
                         std::span<const unsigned char> decoded) {
  SPBC_ASSERT(versions.size() == versions_.size() && decoded.size() == size());
  versions_.assign(versions.begin(), versions.end());
  const uint64_t chunk = state_block(cfg_);
  std::vector<unsigned char> buf(chunk);
  for (uint64_t off = 0; off < size(); off += chunk) {
    const uint64_t len = std::min<uint64_t>(chunk, size() - off);
    write(off, len, buf.data());
    SPBC_ASSERT_MSG(std::memcmp(buf.data(), decoded.data() + off, len) == 0,
                    "restored state image of rank "
                        << rank_ << " differs from its synthesis at bytes ["
                        << off << ", " << off + len << ")");
  }
}

}  // namespace spbc::ckpt
