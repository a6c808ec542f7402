#pragma once
// Deterministic event queue: a binary min-heap ordered by (time, shard, seq).
//
// The key is the global tie-break rule for the sharded engine: `shard` is the
// *logical* (key) shard that scheduled the event and `seq` is that shard's
// own monotone counter. Because the key never mentions which physical queue
// or thread executes the event, merging any number of per-shard queues by
// smallest key reproduces the exact same global order for every shard count —
// the property the channel-determinism checker and every regression test
// depend on. The standalone two-argument schedule() stamps (t, shard 0, local
// counter): plain (time, insertion-order).
//
// Cancellation is O(1): an open-addressed id->slot table finds the entry, its
// slot is recycled immediately, and the stale heap item is dropped when it
// surfaces. A compaction pass rebuilds the heap whenever stale items outnumber
// live ones, so cancel-heavy storms (rank timers raced by message arrivals)
// cannot grow the heap beyond ~2x the live event count.

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace spbc::sim {

/// Global event ordering key. Lexicographic (time, shard, seq).
struct EventKey {
  Time t = kTimeZero;
  uint32_t shard = 0;  // logical (key) shard of the scheduling context
  uint64_t seq = 0;    // that shard's monotone sequence number

  bool operator<(const EventKey& o) const {
    if (t != o.t) return t < o.t;
    if (shard != o.shard) return shard < o.shard;
    return seq < o.seq;
  }
  bool operator>(const EventKey& o) const { return o < *this; }
};

class EventQueue {
 public:
  using EventFn = std::function<void()>;
  using EventId = uint64_t;

  /// Schedules fn at absolute time t with key (t, 0, internal counter) —
  /// plain insertion order. Returns an id usable with cancel().
  EventId schedule(Time t, EventFn fn);

  /// Sharded-engine path: schedule with an explicit ordering key. `owner` is
  /// the key shard whose state the event mutates (the execution context the
  /// engine restores around fn); it does not affect ordering.
  EventId schedule_keyed(const EventKey& key, uint32_t owner, EventFn fn);

  /// Reserves an id for a later schedule_reserved() — used by the engine's
  /// cross-shard mailboxes, where the id must be returned to the caller
  /// before the owning thread performs the actual insert. Thread-safe.
  EventId reserve_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void schedule_reserved(EventId id, const EventKey& key, uint32_t owner,
                         EventFn fn);

  /// Cancels a scheduled event. O(1); the slot is recycled immediately.
  /// Unknown/already-popped ids are ignored.
  void cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  /// Key/time of the earliest live event; only valid when !empty().
  const EventKey& next_key() const;
  Time next_time() const { return next_key().t; }

  struct Popped {
    EventKey key;
    uint32_t owner;
    EventFn fn;
  };
  /// Pops and returns the earliest live event. Only valid when !empty().
  Popped pop_keyed();
  /// Legacy shape of pop_keyed().
  std::pair<Time, EventFn> pop();

  /// Heap entries including not-yet-dropped cancelled ones — bounded at
  /// ~2x size() by compaction (regression-tested).
  size_t heap_size() const { return heap_.size(); }

 private:
  struct Entry {
    EventId id = 0;  // 0 = free slot
    uint32_t owner = 0;
    EventKey key;
    EventFn fn;
  };
  struct HeapItem {
    EventKey key;
    EventId id;
    size_t slot;
    bool operator>(const HeapItem& o) const { return key > o.key; }
  };

  bool stale(const HeapItem& it) const { return entries_[it.slot].id != it.id; }
  void drop_stale_top() const;
  void maybe_compact();
  void free_slot(size_t slot);

  // Open-addressed id->slot map (linear probe, backward-shift deletion).
  void map_insert(EventId id, size_t slot);
  bool map_erase(EventId id, size_t* slot_out);
  void map_grow();

  std::vector<Entry> entries_;
  mutable std::vector<HeapItem> heap_;  // min-heap via std::*_heap with greater
  std::vector<size_t> free_slots_;
  std::atomic<EventId> next_id_{1};
  uint64_t legacy_seq_ = 0;
  size_t live_count_ = 0;

  struct MapCell {
    EventId id = 0;  // 0 = empty
    size_t slot = 0;
  };
  std::vector<MapCell> map_cells_;
  size_t map_count_ = 0;
};

}  // namespace spbc::sim
