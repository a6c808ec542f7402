// Tests: checkpoint data reduction (DESIGN.md §15) — the deterministic
// LZ/RLE codec (pinned token stream, damaged-input rejection), the block
// hash, the synthetic block-mutation state model, content-addressed
// delta captures in ckpt::Store (chains, the full-capture stride bound,
// chain-clamped pruning, rename semantics), chain-aware staging
// recoverability, and end-to-end scenario identity with reduction enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "ckpt/reduction.hpp"
#include "ckpt/staging.hpp"
#include "ckpt/store.hpp"
#include "core/spbc.hpp"
#include "harness/scenario.hpp"
#include "mpi/machine.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace spbc {
namespace {

std::vector<unsigned char> roundtrip(const std::vector<unsigned char>& data) {
  const std::vector<unsigned char> enc = util::codec::lz_compress(data);
  return util::codec::lz_decompress(enc, data.size());
}

TEST(Codec, RoundTripsEmptyAndTiny) {
  EXPECT_TRUE(roundtrip({}).empty());
  for (size_t n = 1; n <= 16; ++n) {
    std::vector<unsigned char> data(n);
    for (size_t i = 0; i < n; ++i) data[i] = static_cast<unsigned char>(i * 37);
    EXPECT_EQ(roundtrip(data), data) << "length " << n;
  }
}

TEST(Codec, CompressesConstantRuns) {
  std::vector<unsigned char> data(64 * 1024, 0xAB);
  const std::vector<unsigned char> enc = util::codec::lz_compress(data);
  EXPECT_LT(enc.size(), data.size() / 100) << "RLE degeneration missing";
  EXPECT_EQ(util::codec::lz_decompress(enc, data.size()), data);
}

TEST(Codec, RoundTripsPatternedPayloads) {
  // Low-entropy structured content at awkward sizes, including ones that end
  // mid-match and mid-literal-run.
  util::Pcg32 rng(42, 7);
  for (size_t n : {17u, 255u, 256u, 257u, 4095u, 4096u, 70000u}) {
    std::vector<unsigned char> data(n);
    size_t i = 0;
    while (i < n) {
      const unsigned char fill = static_cast<unsigned char>(rng.next_bounded(256));
      const size_t run = 1 + rng.next_bounded(64);
      for (size_t j = 0; j < run && i < n; ++j) data[i++] = fill;
    }
    EXPECT_EQ(roundtrip(data), data) << "length " << n;
  }
}

TEST(Codec, RoundTripsIncompressibleBytes) {
  util::Pcg32 rng(3, 9);
  std::vector<unsigned char> data(50000);
  for (unsigned char& b : data) b = static_cast<unsigned char>(rng.next_bounded(256));
  // Uniform noise may expand — the caller keeps the raw bytes then — but the
  // round trip itself must still be exact.
  EXPECT_EQ(roundtrip(data), data);
}

TEST(Codec, DeterministicEncoding) {
  std::vector<unsigned char> data(8192);
  util::Pcg32 rng(11, 1);
  ckpt::fill_synth_block(data.data(), data.size(), rng.next_u64());
  EXPECT_EQ(util::codec::lz_compress(data), util::codec::lz_compress(data));
}

// Inputs of the pinned token stream: synthetic state, long constant runs,
// uniform noise, and short-period patterns (self-overlapping matches).
std::vector<unsigned char> golden_input(int which) {
  std::vector<unsigned char> data;
  switch (which) {
    case 0:
      data.resize(65539);
      ckpt::fill_synth_block(data.data(), data.size(), 0x5eed);
      break;
    case 1:
      data.assign(30000, 0xAB);
      data.insert(data.end(), 20000, 0x00);
      data.insert(data.end(), 20001, 0x11);
      break;
    case 2: {
      util::Pcg32 rng(3, 9);
      data.resize(50000);
      for (unsigned char& b : data) b = static_cast<unsigned char>(rng.next_bounded(256));
      break;
    }
    default: {
      util::Pcg32 rng(21, 4);
      while (data.size() < 20011) {
        const uint32_t period = 1 + rng.next_bounded(9);
        const uint32_t len = 4 + rng.next_bounded(40);
        unsigned char pat[9];
        for (uint32_t j = 0; j < period; ++j)
          pat[j] = static_cast<unsigned char>(rng.next_u32());
        for (uint32_t j = 0; j < len; ++j) data.push_back(pat[j % period]);
      }
      break;
    }
  }
  return data;
}

TEST(Codec, TokenStreamIsPinned) {
  // Encoded sizes feed staging and the control plane, so any change to the
  // token stream moves virtual-time results. Size and FNV-1a digest of each
  // golden_input's encoding, as the byte-serial encoder produced them.
  struct Golden {
    size_t raw, enc;
    uint64_t digest;
  };
  const Golden want[] = {{65539, 9510, 0x66a2aff4cd0b843aull},
                         {70001, 288, 0xf57210bc7c336270ull},
                         {50000, 50198, 0xe85ed912a7f351c7ull},
                         {20022, 6990, 0xf4946a54d0697b11ull}};
  for (int w = 0; w < 4; ++w) {
    const std::vector<unsigned char> raw = golden_input(w);
    const std::vector<unsigned char> enc = util::codec::lz_compress(raw);
    util::Fnv1a64 h;
    h.update(enc.data(), enc.size());
    EXPECT_EQ(raw.size(), want[w].raw) << "input " << w;
    EXPECT_EQ(enc.size(), want[w].enc) << "input " << w;
    EXPECT_EQ(h.digest(), want[w].digest) << "input " << w;
    // The store keeps blobs for many epochs: no spare capacity.
    EXPECT_EQ(enc.capacity(), enc.size()) << "input " << w;
    EXPECT_EQ(util::codec::lz_decompress(enc, raw.size()), raw) << "input " << w;
  }
}

TEST(Codec, RoundTripsShortOffsetOverlaps) {
  // A period-p run encodes as a match at offset p. The decoder fills offset
  // 1, copies offsets of at least the match length in one go, and copies
  // the rest byte by byte; lengths straddle 8 and 16 bytes.
  util::Pcg32 rng(5, 5);
  for (uint32_t period = 1; period <= 9; ++period) {
    for (uint32_t mlen : {6u, 7u, 8u, 9u, 15u, 16u, 17u, 18u, 19u, 300u}) {
      std::vector<unsigned char> data;
      for (int rep = 0; rep < 3; ++rep) {
        for (int i = 0; i < 5; ++i) data.push_back(static_cast<unsigned char>(rng.next_u32()));
        unsigned char pat[9];
        for (uint32_t j = 0; j < period; ++j)
          pat[j] = static_cast<unsigned char>(rng.next_u32());
        for (uint32_t j = 0; j < period + mlen; ++j) data.push_back(pat[j % period]);
      }
      EXPECT_EQ(roundtrip(data), data) << "period " << period << " length " << mlen;
    }
  }
}

// The token format decoded a byte at a time with every check spelled out:
// the reference the fast decoder must agree with on damaged input.
bool reference_decode(const std::vector<unsigned char>& enc, size_t out_n,
                      std::vector<unsigned char>* out) {
  out->clear();
  out->reserve(out_n);
  size_t ip = 0;
  auto extend = [&](size_t& len) {
    for (;;) {
      if (ip >= enc.size()) return false;
      const unsigned char c = enc[ip++];
      len += c;
      if (c != 255) return true;
    }
  };
  while (ip < enc.size()) {
    const unsigned char token = enc[ip++];
    size_t nlit = token >> 4;
    if (nlit == 15 && !extend(nlit)) return false;
    for (size_t i = 0; i < nlit; ++i) {
      if (ip >= enc.size() || out->size() >= out_n) return false;
      out->push_back(enc[ip++]);
    }
    if ((token & 0x0f) == 0 && ip == enc.size()) break;
    if (enc.size() - ip < 2) return false;
    const size_t offset = enc[ip] | (static_cast<size_t>(enc[ip + 1]) << 8);
    ip += 2;
    size_t mlen = (token & 0x0f) + 4;
    if ((token & 0x0f) == 15 && !extend(mlen)) return false;
    if (offset == 0 || offset > out->size()) return false;
    for (size_t i = 0; i < mlen; ++i) {
      if (out->size() >= out_n) return false;
      const unsigned char c = (*out)[out->size() - offset];
      out->push_back(c);
    }
  }
  return out->size() == out_n;
}

TEST(Codec, DecoderRejectsDamagedStreams) {
  // 20,000 seeded mutations of real encodings: truncations, byte flips, and
  // both. Each must be rejected or decode exactly as the reference does.
  // Guard bytes around the output catch a stray write; the stream sits in
  // an exact-size heap block so a sanitizer build catches a stray read.
  constexpr size_t kGuard = 32;
  constexpr unsigned char kFill = 0xA5;
  util::Pcg32 rng(12, 20);
  int accepted = 0, rejected = 0;
  for (int input = 0; input < 40; ++input) {
    std::vector<unsigned char> raw(64 + rng.next_bounded(4096));
    ckpt::fill_synth_block(raw.data(), raw.size(), rng.next_u64());
    const std::vector<unsigned char> enc = util::codec::lz_compress(raw);
    for (int m = 0; m < 500; ++m) {
      std::vector<unsigned char> bad = enc;
      const uint32_t kind = rng.next_bounded(3);  // 0 cut, 1 flip, 2 both
      if (kind != 1) bad.resize(rng.next_bounded(static_cast<uint32_t>(enc.size())));
      if (kind != 0 && !bad.empty()) {
        const uint32_t flips = 1 + rng.next_bounded(3);
        for (uint32_t f = 0; f < flips; ++f)
          bad[rng.next_bounded(static_cast<uint32_t>(bad.size()))] ^=
              static_cast<unsigned char>(1 + rng.next_bounded(255));
      }
      const std::unique_ptr<unsigned char[]> in(new unsigned char[bad.size()]);
      std::copy(bad.begin(), bad.end(), in.get());
      std::vector<unsigned char> out(raw.size() + 2 * kGuard, kFill);
      const bool ok = util::codec::lz_decompress(in.get(), bad.size(),
                                                 out.data() + kGuard, raw.size());
      const std::string where =
          "input " + std::to_string(input) + " mutation " + std::to_string(m);
      for (size_t i = 0; i < kGuard; ++i) {
        ASSERT_EQ(out[i], kFill) << "write before the output, " << where;
        ASSERT_EQ(out[kGuard + raw.size() + i], kFill)
            << "write past the output, " << where;
      }
      std::vector<unsigned char> want;
      ASSERT_EQ(ok, reference_decode(bad, raw.size(), &want)) << where;
      if (!ok) {
        ++rejected;
        continue;
      }
      ++accepted;
      ASSERT_TRUE(std::equal(want.begin(), want.end(), out.begin() + kGuard)) << where;
    }
  }
  // A flipped literal byte still decodes; most other damage is caught.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, accepted);
}

TEST(StateModel, PureInSeedRankEpoch) {
  ckpt::StateModelConfig cfg;
  cfg.bytes = 8192;
  cfg.block_bytes = 512;
  cfg.mutation_rate = 0.25;
  cfg.seed = 77;
  std::vector<unsigned char> a = ckpt::make_state(cfg, 3);
  std::vector<unsigned char> b = ckpt::make_state(cfg, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, ckpt::make_state(cfg, 4));
  ckpt::evolve_state(a, cfg, 3, 1);
  ckpt::evolve_state(b, cfg, 3, 1);
  EXPECT_EQ(a, b) << "evolution not pure in (seed, rank, epoch)";
  // Compressible by construction, and a bounded fraction of blocks changes
  // per epoch (mutation_rate, at least one block).
  EXPECT_LT(util::codec::lz_compress(a).size(), a.size());
  std::vector<unsigned char> c = b;
  ckpt::evolve_state(c, cfg, 3, 2);
  const std::vector<uint64_t> hb = ckpt::hash_blocks(b, cfg.block_bytes);
  const std::vector<uint64_t> hc = ckpt::hash_blocks(c, cfg.block_bytes);
  size_t changed = 0;
  for (size_t i = 0; i < hb.size(); ++i)
    if (hb[i] != hc[i]) ++changed;
  EXPECT_GE(changed, 1u);
  EXPECT_LE(changed, 4u) << "mutation rewrote more blocks than the rate allows";
}

TEST(StateModel, HashBlocksSeesTailChanges) {
  std::vector<unsigned char> a(1000, 1);
  std::vector<unsigned char> b = a;
  b.back() = 2;  // short tail block
  const std::vector<uint64_t> ha = ckpt::hash_blocks(a, 256);
  const std::vector<uint64_t> hb = ckpt::hash_blocks(b, 256);
  ASSERT_EQ(ha.size(), 4u);
  EXPECT_EQ(ha[0], hb[0]);
  EXPECT_NE(ha[3], hb[3]);
}

TEST(StateModel, HashBlocksSeesEverySingleByteFlip) {
  // A 1 KiB block and a 45-byte tail (one 32-byte stripe, one word and five
  // single bytes), over synthetic and all-zero content.
  for (const bool zeros : {false, true}) {
    std::vector<unsigned char> base(1024 + 45, 0);
    if (!zeros) ckpt::fill_synth_block(base.data(), base.size(), 99);
    const std::vector<uint64_t> h0 = ckpt::hash_blocks(base, 1024);
    ASSERT_EQ(h0.size(), 2u);
    for (size_t i = 0; i < base.size(); ++i) {
      for (const unsigned char mask : {0x01, 0x80, 0xff}) {
        std::vector<unsigned char> v = base;
        v[i] ^= mask;
        const std::vector<uint64_t> h = ckpt::hash_blocks(v, 1024);
        const size_t blk = i / 1024;
        EXPECT_NE(h[blk], h0[blk]) << "byte " << i << " mask " << int{mask};
        EXPECT_EQ(h[1 - blk], h0[1 - blk]) << "byte " << i;
      }
    }
  }
}

TEST(StateModel, HashBlocksChangedSetMatchesByteCompare) {
  // The changed-block set the store derives from hashes must be exactly the
  // set a byte-wise comparison finds, epoch after epoch.
  ckpt::StateModelConfig cfg;
  cfg.bytes = 64 * 1024 + 300;  // short tail block
  cfg.block_bytes = 1024;
  cfg.mutation_rate = 0.05;
  cfg.seed = 17;
  std::vector<unsigned char> prev = ckpt::make_state(cfg, 2);
  std::vector<uint64_t> prev_h = ckpt::hash_blocks(prev, cfg.block_bytes);
  for (uint64_t e = 1; e <= 200; ++e) {
    std::vector<unsigned char> cur = prev;
    ckpt::evolve_state(cur, cfg, 2, e);
    const std::vector<uint64_t> h = ckpt::hash_blocks(cur, cfg.block_bytes);
    ASSERT_EQ(h.size(), prev_h.size());
    for (size_t b = 0; b < h.size(); ++b) {
      const size_t off = b * cfg.block_bytes;
      const size_t len = std::min<size_t>(cfg.block_bytes, cur.size() - off);
      const bool changed = std::memcmp(prev.data() + off, cur.data() + off, len) != 0;
      ASSERT_EQ(h[b] != prev_h[b], changed) << "epoch " << e << " block " << b;
    }
    prev = std::move(cur);
    prev_h = h;
  }
}

// Store with delta + compression on: saves a per-epoch evolving payload and
// checks the chain metadata, the reduction ratio, and exact materialization.
class DeltaStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    smc_.bytes = 16384;
    smc_.block_bytes = 1024;
    smc_.mutation_rate = 0.10;
    smc_.seed = 5;
    ckpt::ReductionConfig red;
    red.delta = true;
    red.block_bytes = 1024;
    red.full_stride = 4;
    red.compress = true;
    store_.set_reduction(red);
    state_ = ckpt::make_state(smc_, 0);
  }

  ckpt::SaveInfo save_epoch(uint64_t epoch, bool force_full = false) {
    ckpt::evolve_state(state_, smc_, 0, epoch);
    expected_[epoch] = state_;
    ckpt::Snapshot s;
    s.taken_at = static_cast<double>(epoch);
    s.epoch = epoch;
    s.bytes = state_;
    return store_.save(0, std::move(s), force_full);
  }

  void expect_materializes(uint64_t epoch) {
    std::vector<unsigned char> scratch;
    EXPECT_EQ(store_.materialize(0, epoch, scratch), expected_.at(epoch))
        << "epoch " << epoch;
  }

  ckpt::StateModelConfig smc_;
  ckpt::Store store_;
  std::vector<unsigned char> state_;
  std::map<uint64_t, std::vector<unsigned char>> expected_;
};

TEST_F(DeltaStoreTest, ChainsAndStrideBound) {
  for (uint64_t e = 1; e <= 9; ++e) save_epoch(e);
  // full_stride = 4: epochs 1, 5, 9 are full; the rest chain off them.
  for (uint64_t e = 1; e <= 9; ++e) {
    const ckpt::StoredSnapshot& s = store_.at_epoch(0, e);
    const uint64_t want_base = e - ((e - 1) % 4);
    EXPECT_EQ(s.chain_base, want_base) << "epoch " << e;
    EXPECT_EQ(s.full(), e == want_base);
    expect_materializes(e);
  }
  EXPECT_EQ(store_.delta_snapshots(), 6u);
  // 10% of blocks mutate per epoch: deltas must shrink storage well below
  // the raw capture volume.
  EXPECT_LT(store_.total_bytes_written(), store_.total_raw_bytes() / 2);
}

TEST_F(DeltaStoreTest, ForceFullBreaksTheChain) {
  save_epoch(1);
  save_epoch(2);
  const ckpt::SaveInfo info = save_epoch(3, /*force_full=*/true);
  EXPECT_TRUE(info.full);
  EXPECT_EQ(info.chain_base, 3u);
  // A forced-full epoch may be renamed (the migration flip's re-key).
  store_.rename_epoch(0, 3, 7);
  EXPECT_TRUE(store_.has_epoch(0, 7));
  EXPECT_EQ(store_.at_epoch(0, 7).chain_base, 7u);
  std::vector<unsigned char> scratch;
  EXPECT_EQ(store_.materialize(0, 7, scratch), expected_.at(3));
}

TEST_F(DeltaStoreTest, PruneClampsToChainBase) {
  for (uint64_t e = 1; e <= 6; ++e) save_epoch(e);
  // Nominal floor 3 sits mid-chain (base 1): the effective floor must clamp
  // to the base, keeping epochs 1 and 2 alive to back epoch 3's restore.
  EXPECT_EQ(store_.prune_epochs_below(0, 3), 1u);
  EXPECT_TRUE(store_.has_epoch(0, 1));
  EXPECT_TRUE(store_.has_epoch(0, 2));
  expect_materializes(3);
  expect_materializes(6);
  // A floor on a full epoch prunes everything below it.
  EXPECT_EQ(store_.prune_epochs_below(0, 5), 5u);
  EXPECT_FALSE(store_.has_epoch(0, 4));
  expect_materializes(6);
}

TEST(DeltaStore, SameGranularityRequiredForDelta) {
  ckpt::Store store;
  ckpt::ReductionConfig red;
  red.delta = true;
  red.block_bytes = 512;
  store.set_reduction(red);
  ckpt::Snapshot a;
  a.epoch = 1;
  a.bytes.assign(4096, 3);
  store.save(0, std::move(a));
  // Same bytes one epoch later: a delta with zero changed blocks.
  ckpt::Snapshot b;
  b.epoch = 2;
  b.bytes.assign(4096, 3);
  const ckpt::SaveInfo info = store.save(0, std::move(b));
  EXPECT_FALSE(info.full);
  EXPECT_EQ(info.blocks_changed, 0u);
  EXPECT_EQ(info.stored_bytes, 0u);
  std::vector<unsigned char> scratch;
  EXPECT_EQ(store.materialize(0, 2, scratch),
            std::vector<unsigned char>(4096, 3));
}

TEST(DeltaStore, MissingPredecessorForcesFull) {
  ckpt::Store store;
  ckpt::ReductionConfig red;
  red.delta = true;
  store.set_reduction(red);
  ckpt::Snapshot a;
  a.epoch = 1;
  a.bytes.assign(1000, 1);
  store.save(0, std::move(a));
  // Epoch 3 has no epoch-2 predecessor: it must be a full capture.
  ckpt::Snapshot c;
  c.epoch = 3;
  c.bytes.assign(1000, 2);
  EXPECT_TRUE(store.save(0, std::move(c)).full);
}

// Chain-aware staging: a delta head is only recoverable while every chain
// element is, and execute_restore walks the whole chain.
TEST(StagingChain, RecoverabilitySpansTheChain) {
  mpi::MachineConfig mc;
  mc.nranks = 4;
  mc.ranks_per_node = 1;
  core::SpbcConfig scfg;
  auto proto = std::make_unique<core::SpbcProtocol>(scfg);
  mpi::Machine m(mc, std::move(proto));
  m.set_cluster_of({0, 0, 1, 1});

  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.model.pfs_bw = 1.0;  // the PFS frontier never catches up
  sc.redundancy.kind = ckpt::SchemeKind::kPartner;
  ckpt::StagingArea area(sc);
  area.attach(m);

  auto failed = std::make_shared<int>(0);
  auto succeeded = std::make_shared<int>(0);
  m.engine().at(0.01, [&] {
    area.write(0, 1, 1000);                          // full
    area.write(0, 2, 200, ckpt::LevelPlan{}, 1);     // delta on 1
    area.write(0, 3, 200, ckpt::LevelPlan{}, 1);     // delta on 1
  });
  m.engine().at(1.0, [&] {
    const std::vector<uint64_t> chain = area.restore_chain(0, 3);
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain.front(), 1u);
    EXPECT_TRUE(area.recoverable(0, 3));
    // Losing the owner's node kills LOCAL copies of every element; the
    // partner copies keep the chain recoverable.
    area.invalidate_node(0);
    EXPECT_TRUE(area.recoverable(0, 3));
    // Losing the partner's host too exhausts the chain (PFS never landed):
    // the head must stop claiming recoverability.
    area.invalidate_node(m.node_of(area.partner_of(0)));
    EXPECT_FALSE(area.recoverable(0, 3));
    area.execute_restore(0, 3, [failed, succeeded](bool ok) {
      if (ok)
        ++*failed;  // false success: the chain was exhausted
      else
        ++*succeeded;
    });
  });
  ASSERT_TRUE(m.run().completed);
  EXPECT_EQ(*failed, 0) << "exhausted chain restore reported success";
  EXPECT_EQ(*succeeded, 1);
}

// The state the model gives `rank` after its cut of `epoch` (epoch 0 = the
// initial image).
std::vector<unsigned char> expected_state(const ckpt::StateModelConfig& sm,
                                          int rank, uint64_t epoch) {
  std::vector<unsigned char> buf = ckpt::make_state(sm, rank);
  for (uint64_t e = 1; e <= epoch; ++e) ckpt::evolve_state(buf, sm, rank, e);
  return buf;
}

uint64_t fnv1a(const std::vector<unsigned char>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

// SPBC with two probes: a digest of every capture as it is cut (decoded
// back from the store, so the digest is of the capture's raw bytes), and
// the synthetic state of every rank as it respawns from a rollback.
class CaptureProbe : public core::SpbcProtocol {
 public:
  using SpbcProtocol::SpbcProtocol;

  struct Restored {
    int rank;
    uint64_t epoch;
    bool delta;  // the restored capture decoded through a delta chain
    std::vector<unsigned char> state;
  };

  bool maybe_checkpoint(mpi::Rank& rank) override {
    if (!SpbcProtocol::maybe_checkpoint(rank)) return false;
    const int r = rank.rank();
    const uint64_t epoch = snapshot_epoch(r);
    std::vector<unsigned char> scratch;
    digests[{r, epoch}] = fnv1a(store().materialize(r, epoch, scratch));
    return true;
  }

  void on_rank_start(mpi::Rank& rank, bool restarted) override {
    SpbcProtocol::on_rank_start(rank, restarted);
    if (restarted) {
      const int r = rank.rank();
      const uint64_t epoch = snapshot_epoch(r);
      const bool delta = epoch > 0 && !store().at_epoch(r, epoch).full();
      restored.push_back({r, epoch, delta, synthetic_state(r)});
    }
  }

  std::map<std::pair<int, uint64_t>, uint64_t> digests;
  std::vector<Restored> restored;
};

struct ProbedRun {
  std::unique_ptr<mpi::Machine> machine;
  sim::Time elapsed = 0;
  CaptureProbe& probe() const {
    return dynamic_cast<CaptureProbe&>(machine->protocol());
  }
};

// Runs `cfg`'s app under a CaptureProbe with the harness's cluster map,
// failing `victim` at time `t` for each (t, victim) of `failures`; the
// machine is kept so its protocol can be inspected.
ProbedRun run_probed(const harness::ScenarioConfig& cfg,
                     const std::vector<std::pair<sim::Time, int>>& failures = {}) {
  mpi::MachineConfig mc = cfg.machine;
  mc.nranks = cfg.nranks;
  mc.ranks_per_node = cfg.ranks_per_node;
  auto m = std::make_unique<mpi::Machine>(mc, std::make_unique<CaptureProbe>(cfg.spbc));
  m->set_cluster_of(harness::compute_cluster_map(cfg));
  const apps::AppInfo& info = apps::find_app(cfg.app);
  const apps::AppConfig app_cfg = cfg.app_cfg;
  m->launch([&info, app_cfg](mpi::Rank& r) { info.main(r, app_cfg); });
  for (const auto& [t, victim] : failures) m->inject_failure(t, victim);
  const mpi::RunResult rr = m->run();
  EXPECT_TRUE(rr.completed);
  return {std::move(m), rr.finish_time};
}

// End-to-end: reduction on (delta + compression + evolving synthetic state),
// a mid-run failure, validate-mode checksums. The recovered run must land on
// exactly the failure-free checksums — the reduction pipeline may not change
// a single byte of restored state.
TEST(ReductionE2E, FailureRunMatchesFailureFreeChecksums) {
  harness::ScenarioConfig cfg;
  cfg.app = "MiniGhost";
  cfg.nranks = 16;
  cfg.ranks_per_node = 4;
  cfg.nclusters = 4;
  cfg.app_cfg.iters = 6;
  cfg.app_cfg.validate = true;
  cfg.spbc.checkpoint_every = 2;
  cfg.spbc.storage = ckpt::StorageLevel::kPfs;
  cfg.spbc.async_staging = true;
  cfg.spbc.reduction.delta = true;
  cfg.spbc.reduction.block_bytes = 256;
  cfg.spbc.reduction.full_stride = 4;
  cfg.spbc.reduction.compress = true;
  cfg.spbc.state_model.bytes = 4096;
  cfg.spbc.state_model.block_bytes = 256;
  cfg.spbc.state_model.mutation_rate = 0.2;
  cfg.spbc.state_model.seed = 9;

  harness::ScenarioResult ff = harness::run_failure_free(cfg);
  ASSERT_TRUE(ff.run.completed);
  ASSERT_FALSE(ff.checksums.empty());
  // Every capture whose chain is not due a full one is a delta: the
  // synthetic state leads each capture, so the sender log growing behind it
  // does not dirty its blocks.
  const uint64_t epochs = cfg.app_cfg.iters / cfg.spbc.checkpoint_every;
  const uint64_t fulls =
      (epochs + cfg.spbc.reduction.full_stride - 1) / cfg.spbc.reduction.full_stride;
  EXPECT_EQ(ff.checkpoints, cfg.nranks * epochs);
  EXPECT_EQ(ff.delta_snapshots, cfg.nranks * (epochs - fulls));
  EXPECT_LT(ff.ckpt_stored_bytes, ff.ckpt_raw_bytes);

  harness::ScenarioResult fr = harness::run_with_failure(cfg, ff.elapsed, 0.6);
  ASSERT_TRUE(fr.run.completed);
  EXPECT_EQ(fr.checksums, ff.checksums)
      << "reduction changed restored state bytes";
}

// Bit-identity across engine shard layouts with reduction enabled: encoded
// sizes feed the control plane and staging, so any layout-dependence in the
// encoder would fan out into divergent schedules.
TEST(ReductionE2E, ShardLayoutInvariant) {
  harness::ScenarioConfig cfg;
  cfg.app = "MiniFE";
  cfg.nranks = 16;
  cfg.ranks_per_node = 4;
  cfg.nclusters = 4;
  cfg.app_cfg.iters = 5;
  cfg.app_cfg.validate = true;
  cfg.spbc.checkpoint_every = 2;
  cfg.spbc.storage = ckpt::StorageLevel::kPfs;
  cfg.spbc.async_staging = true;
  cfg.spbc.reduction.delta = true;
  cfg.spbc.reduction.block_bytes = 512;
  cfg.spbc.reduction.compress = true;
  cfg.spbc.state_model.bytes = 2048;
  cfg.spbc.state_model.block_bytes = 512;
  cfg.spbc.state_model.seed = 4;

  cfg.machine.engine_shards = 1;
  harness::ScenarioResult serial = harness::run_failure_free(cfg);
  ASSERT_TRUE(serial.run.completed);

  cfg.machine.engine_shards = 0;  // one shard per cluster
  harness::ScenarioResult sharded = harness::run_failure_free(cfg);
  ASSERT_TRUE(sharded.run.completed);

  EXPECT_EQ(serial.checksums, sharded.checksums);
  EXPECT_EQ(serial.ckpt_stored_bytes, sharded.ckpt_stored_bytes);
  EXPECT_EQ(serial.delta_snapshots, sharded.delta_snapshots);
  EXPECT_EQ(serial.bytes_pfs_written, sharded.bytes_pfs_written);

  // Equal sizes can hide different bytes: every (rank, epoch) capture must
  // be byte-identical across the layouts.
  cfg.machine.engine_shards = 1;
  const ProbedRun serial_probed = run_probed(cfg);
  cfg.machine.engine_shards = 0;
  const ProbedRun sharded_probed = run_probed(cfg);
  const auto& serial_digests = serial_probed.probe().digests;
  EXPECT_EQ(serial_digests.size(), serial.checkpoints);
  EXPECT_EQ(serial_digests, sharded_probed.probe().digests);
}

// The synthetic state is not covered by app checksums, so check it
// directly: every capture the store retains leads with the model's state
// for its (rank, epoch), and every rollback restores exactly that state —
// through delta chains as well as full captures.
TEST(ReductionE2E, RestoredSyntheticStateMatchesStateModel) {
  harness::ScenarioConfig cfg;
  cfg.app = "MiniGhost";
  cfg.nranks = 16;
  cfg.ranks_per_node = 4;
  cfg.nclusters = 4;
  cfg.app_cfg.iters = 12;
  cfg.spbc.checkpoint_every = 2;
  cfg.spbc.storage = ckpt::StorageLevel::kPfs;
  cfg.spbc.async_staging = true;
  cfg.spbc.reduction.delta = true;
  cfg.spbc.reduction.block_bytes = 256;
  cfg.spbc.reduction.full_stride = 4;
  cfg.spbc.reduction.compress = true;
  cfg.spbc.state_model.bytes = 4096;
  cfg.spbc.state_model.block_bytes = 256;
  cfg.spbc.state_model.mutation_rate = 0.2;
  cfg.spbc.state_model.seed = 5;
  const ckpt::StateModelConfig& sm = cfg.spbc.state_model;

  const ProbedRun ff = run_probed(cfg);
  const CaptureProbe& ffp = ff.probe();
  uint64_t retained = 0;
  uint64_t retained_deltas = 0;
  for (int r = 0; r < cfg.nranks; ++r) {
    for (uint64_t e = 1; e <= ffp.snapshot_epoch(r); ++e) {
      if (!ffp.store().has_epoch(r, e)) continue;
      std::vector<unsigned char> scratch;
      const std::vector<unsigned char>& bytes = ffp.store().materialize(r, e, scratch);
      ASSERT_GE(bytes.size(), sm.bytes);
      EXPECT_TRUE(std::equal(bytes.begin(), bytes.begin() + static_cast<long>(sm.bytes),
                             expected_state(sm, r, e).begin()))
          << "rank " << r << " epoch " << e;
      ++retained;
      if (!ffp.store().at_epoch(r, e).full()) ++retained_deltas;
    }
  }
  EXPECT_GT(retained, 0u);
  EXPECT_GT(retained_deltas, 0u);

  // Four failure runs, each failing a different rank at a later time.
  uint64_t restores = 0;
  uint64_t delta_restores = 0;
  for (int i = 0; i < 4; ++i) {
    const ProbedRun fr = run_probed(cfg, {{ff.elapsed * (0.3 + 0.15 * i), i * 5}});
    for (const CaptureProbe::Restored& rs : fr.probe().restored) {
      EXPECT_TRUE(rs.state == expected_state(sm, rs.rank, rs.epoch))
          << "rank " << rs.rank << " restored epoch " << rs.epoch;
      ++restores;
      if (rs.delta) ++delta_restores;
    }
  }
  EXPECT_GT(restores, 0u);
  EXPECT_GT(delta_restores, 0u);
}

}  // namespace
}  // namespace spbc
