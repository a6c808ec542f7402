#pragma once
// Flat per-channel traffic accumulator — the clustering tool's input.
//
// Machine::record_traffic runs on every message send, so in tracing runs the
// per-channel counter is a hot-path structure. The previous
// std::map<std::pair<int,int>, uint64_t> paid a red-black-tree walk plus a
// node allocation per new channel; this is a per-source open-addressed table
// keyed by destination rank (power-of-two capacity, linear probing). An HPC
// rank talks to a handful of peers, so each row stays small, and a repeat
// send hits its slot in O(1) with no allocation.

#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace spbc::mpi {

class TrafficMatrix {
 public:
  TrafficMatrix() = default;
  explicit TrafficMatrix(int nranks) { reset(nranks); }

  void reset(int nranks) {
    SPBC_ASSERT(nranks >= 0);
    rows_.assign(static_cast<size_t>(nranks), Row{});
  }

  int nranks() const { return static_cast<int>(rows_.size()); }
  // Summed on read: the running total lives in per-source rows so concurrent
  // shard threads (each owning a disjoint set of source ranks) never share a
  // cache line, let alone a counter.
  uint64_t total_bytes() const {
    uint64_t t = 0;
    for (const Row& r : rows_) t += r.total;
    return t;
  }
  bool empty() const { return total_bytes() == 0; }

  /// Hot path: accumulates `bytes` on the (src, dst) channel.
  void add(int src, int dst, uint64_t bytes) {
    SPBC_ASSERT(src >= 0 && src < nranks() && dst >= 0 && dst < nranks());
    Row& row = rows_[static_cast<size_t>(src)];
    if (row.slots.empty()) row.grow(kInitialCapacity);
    // Grow at ~70% load so probes stay short.
    if ((row.used + 1) * 10 > row.slots.size() * 7)
      row.grow(row.slots.size() * 2);
    Slot& s = row.slots[row.probe(dst)];
    if (s.dst < 0) {
      s.dst = dst;
      ++row.used;
    }
    s.bytes += bytes;
    row.total += bytes;
  }

  uint64_t bytes(int src, int dst) const {
    SPBC_ASSERT(src >= 0 && src < nranks() && dst >= 0 && dst < nranks());
    const Row& row = rows_[static_cast<size_t>(src)];
    if (row.slots.empty()) return 0;
    const Slot& s = row.slots[row.probe(dst)];
    return s.dst < 0 ? 0 : s.bytes;
  }

  /// Visits every non-zero channel as fn(src, dst, bytes). Destination order
  /// within a source is the table's probe order (unspecified); callers that
  /// need determinism sort (CommGraph does).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (int src = 0; src < nranks(); ++src) {
      for (const Slot& s : rows_[static_cast<size_t>(src)].slots)
        if (s.dst >= 0) fn(src, s.dst, s.bytes);
    }
  }

 private:
  static constexpr size_t kInitialCapacity = 8;  // power of two

  struct Slot {
    int32_t dst = -1;
    uint64_t bytes = 0;
  };

  struct Row {
    std::vector<Slot> slots;  // power-of-two size
    size_t used = 0;
    uint64_t total = 0;  // sum of this source's bytes

    static size_t hash(int dst) {
      return static_cast<size_t>(static_cast<uint32_t>(dst) * 2654435761u);
    }

    /// Index of dst's slot, or of the empty slot where it would insert.
    size_t probe(int dst) const {
      size_t mask = slots.size() - 1;
      size_t i = hash(dst) & mask;
      while (slots[i].dst >= 0 && slots[i].dst != dst) i = (i + 1) & mask;
      return i;
    }

    void grow(size_t capacity) {
      std::vector<Slot> old = std::move(slots);
      slots.assign(capacity, Slot{});
      for (const Slot& s : old) {
        if (s.dst < 0) continue;
        slots[probe(s.dst)] = s;
      }
    }
  };

  std::vector<Row> rows_;
};

}  // namespace spbc::mpi
