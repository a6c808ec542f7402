#pragma once
// Per-rank sequence-number stream state, keyed by StreamKey.
//
// Every send and every delivery looks its stream up, so the table is flat:
// open addressing with linear probing, entries stored inline in one array,
// in the style of net::Network's channel rows (a rank talks to few peers).
// The array's order is hash order. Whatever depends on order — checkpoint
// bytes, control-message payloads — walks the table with for_each_sorted,
// which visits entries in StreamKey order.

#include <algorithm>
#include <compare>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace spbc::mpi {

/// Sequence-number stream key: (peer, ctx, stream). The stream is -1 in
/// MPI-only mode (one stream per channel, the paper's base protocol) or the
/// message tag under MachineConfig::seq_per_tag (the Section 7 extension for
/// MPI_THREAD_MULTIPLE).
struct StreamKey {
  int peer = -1;
  int ctx = 0;
  int stream = -1;
  auto operator<=>(const StreamKey&) const = default;
};

template <class V>
class StreamTable {
 public:
  /// The entry for `key`, value-initialized on first use. An insert may move
  /// every entry, so a reference must not be held across one.
  V& operator[](const StreamKey& key) {
    SPBC_ASSERT_MSG(key.peer >= 0, "stream key with peer " << key.peer);
    if (cells_.empty()) cells_.resize(8);
    size_t mask = cells_.size() - 1;
    size_t i = hash(key) & mask;
    while (cells_[i].key.peer >= 0) {
      if (cells_[i].key == key) return cells_[i].value;
      i = (i + 1) & mask;
    }
    if ((count_ + 1) * 10 > cells_.size() * 7) {
      grow();
      return (*this)[key];
    }
    cells_[i].key = key;
    ++count_;
    return cells_[i].value;
  }

  size_t size() const { return count_; }

  void clear() {
    cells_.clear();
    count_ = 0;
  }

  /// Visits every (key, value) in hash order; fn must not insert.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (Cell& c : cells_)
      if (c.key.peer >= 0) fn(c.key, c.value);
  }

  /// Visits every (key, value) in StreamKey order; fn must not insert.
  template <class Fn>
  void for_each_sorted(Fn&& fn) const {
    std::vector<const Cell*> order;
    order.reserve(count_);
    for (const Cell& c : cells_)
      if (c.key.peer >= 0) order.push_back(&c);
    std::sort(order.begin(), order.end(),
              [](const Cell* a, const Cell* b) { return a->key < b->key; });
    for (const Cell* c : order) fn(c->key, c->value);
  }

 private:
  struct Cell {
    StreamKey key;  // peer < 0: empty
    V value{};
  };

  static size_t hash(const StreamKey& k) {
    uint64_t h = static_cast<uint32_t>(k.peer) * 0x9E3779B97F4A7C15ull;
    h ^= ((uint64_t{static_cast<uint32_t>(k.ctx)} << 32) |
          static_cast<uint32_t>(k.stream)) *
         0xC2B2AE3D27D4EB4Full;
    return static_cast<size_t>(h ^ (h >> 29));
  }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.clear();
    cells_.resize(old.size() * 2);
    const size_t mask = cells_.size() - 1;
    for (Cell& c : old) {
      if (c.key.peer < 0) continue;
      size_t i = hash(c.key) & mask;
      while (cells_[i].key.peer >= 0) i = (i + 1) & mask;
      cells_[i].key = c.key;
      cells_[i].value = std::move(c.value);
    }
  }

  std::vector<Cell> cells_;
  size_t count_ = 0;
};

}  // namespace spbc::mpi
