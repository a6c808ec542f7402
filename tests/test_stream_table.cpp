// Per-rank sequence-number stream table (mpi/stream_table.hpp): the flat
// open-addressed table behind Rank::send_state / Rank::recv_window must
// behave like the std::map it replaced — same lookups and inserts, and
// for_each_sorted in the map's key order — and a rank's checkpointed
// runtime bytes must not change.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "mpi/machine.hpp"
#include "mpi/stream_table.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace spbc::mpi {
namespace {

std::vector<std::pair<StreamKey, uint64_t>> sorted_contents(
    const StreamTable<uint64_t>& t) {
  std::vector<std::pair<StreamKey, uint64_t>> out;
  t.for_each_sorted(
      [&out](const StreamKey& k, const uint64_t& v) { out.emplace_back(k, v); });
  return out;
}

TEST(StreamTable, MatchesMapUnderRandomLookupsAndInserts) {
  // 10^5 operations over keys drawn like a rank's real streams: a few
  // hundred peers, several communicator contexts, and both stream modes
  // (-1 = one stream per channel, >= 0 = seq_per_tag streams).
  std::mt19937_64 rng(12345);
  StreamTable<uint64_t> table;
  std::map<StreamKey, uint64_t> ref;
  const int ctxs[] = {0, 1, 2, 7, 1000};
  for (int op = 0; op < 100000; ++op) {
    StreamKey k;
    k.peer = static_cast<int>(rng() % 300);
    k.ctx = ctxs[rng() % 5];
    k.stream = (rng() % 2 == 0) ? -1 : static_cast<int>(rng() % 64);
    if (rng() % 2 == 0) {  // insert-or-get, then update
      table[k] += static_cast<uint64_t>(op);
      ref[k] += static_cast<uint64_t>(op);
    } else {  // insert-or-get, read only
      ASSERT_EQ(table[k], ref[k]);
    }
    ASSERT_EQ(table.size(), ref.size());
  }
  const auto sorted = sorted_contents(table);
  ASSERT_EQ(sorted.size(), ref.size());
  size_t i = 0;
  for (const auto& [k, v] : ref) {
    EXPECT_EQ(sorted[i].first, k) << "position " << i;
    EXPECT_EQ(sorted[i].second, v) << "position " << i;
    ++i;
  }
}

TEST(StreamTable, ValuesSurviveGrowthAndClear) {
  StreamTable<std::vector<int>> table;
  for (int p = 0; p < 5000; ++p) table[{p, p % 3, -1}].push_back(p);
  ASSERT_EQ(table.size(), 5000u);
  for (int p = 0; p < 5000; ++p) {
    const std::vector<int>& v = table[{p, p % 3, -1}];
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v.front(), p);
  }
  EXPECT_EQ(table.size(), 5000u);  // every lookup found its entry
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE((table[{1, 1, -1}].empty()));
}

// Gives rank 0 a fixed runtime state through the public stream accessors,
// touching streams in a scrambled order: both stream sides, several ctx
// values and tags, sparse and contiguous windows, and streams that exist on
// one side only.
void fill_fixed_state(Rank& r) {
  const int peers[] = {6, 1, 7, 3, 2, 5, 4};
  const int ctxs[] = {2, 0, 1};
  const int tags[] = {9, 3, 0, 5};
  uint64_t x = 1;
  for (int p : peers) {
    for (int c : ctxs) {
      for (int t : tags) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        if (x >> 62 == 0) continue;  // leave some streams untouched
        if ((x >> 60) & 1) {
          Rank::ChannelSendState& ch = r.send_state(p, c, t);
          ch.next_seq += 1 + (x >> 40) % 9;
          const uint64_t s = 1 + (x >> 20) % 12;
          if (!ch.peer_received.contains(s)) ch.peer_received.add(s);
        }
        if ((x >> 61) & 1) {
          SeqWindow& w = r.recv_window(p, c, t);
          for (uint64_t s : {uint64_t{1}, uint64_t{2}, 4 + (x >> 30) % 5})
            if (!w.contains(s)) w.add(s);
        }
      }
    }
  }
}

std::pair<size_t, uint64_t> serialized_runtime(bool seq_per_tag) {
  MachineConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 2;
  cfg.seed = 7;
  cfg.seq_per_tag = seq_per_tag;
  Machine m(cfg, std::make_unique<NativeProtocol>());
  Rank& r = m.rank(0);
  fill_fixed_state(r);
  util::ByteWriter w;
  r.serialize_runtime(w);
  util::Fnv1a64 h;
  h.update(w.bytes().data(), w.bytes().size());
  return {w.bytes().size(), h.digest()};
}

TEST(StreamTable, RankRuntimeBytesMatchTheMapLayout) {
  // Size and FNV-1a digest of serialize_runtime's bytes for the fixed
  // state, captured from the std::map implementation this table replaced:
  // checkpoints written before and after the change are interchangeable.
  EXPECT_EQ(serialized_runtime(true),
            (std::pair<size_t, uint64_t>{2212, 0xcc9de670425e6936ull}));
  EXPECT_EQ(serialized_runtime(false),
            (std::pair<size_t, uint64_t>{1456, 0x12d8105d26bb9bacull}));
}

TEST(StreamTable, RuntimeRoundTripsThroughRestore) {
  MachineConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 2;
  cfg.seq_per_tag = true;
  Machine m(cfg, std::make_unique<NativeProtocol>());
  fill_fixed_state(m.rank(0));
  util::ByteWriter w;
  m.rank(0).serialize_runtime(w);
  util::ByteReader rd(w.bytes());
  m.rank(1).restore_runtime(rd);
  util::ByteWriter w2;
  m.rank(1).serialize_runtime(w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

}  // namespace
}  // namespace spbc::mpi
