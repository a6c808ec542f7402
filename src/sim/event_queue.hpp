#pragma once
// Deterministic event queue: a binary min-heap ordered by (time, shard, seq).
//
// The key is the global tie-break rule for the sharded engine: `shard` is the
// *logical* (key) shard that scheduled the event and `seq` is that shard's
// own monotone counter. Because the key never mentions which physical queue
// or thread executes the event, merging any number of per-shard queues by
// smallest key reproduces the exact same global order for every shard count —
// the property the channel-determinism checker and every regression test
// depend on. Every key is unique, so the heap pops events in exactly that
// order. Nothing removes an event once scheduled: each one runs.

#include <cstdint>
#include <functional>
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
  struct Event {
    EventKey key;
    uint32_t owner;
    EventFn fn;
  };

  /// Schedules fn under an explicit ordering key. `owner` is the key shard
  /// whose state the event mutates (the execution context the engine
  /// restores around fn); it does not affect ordering.
  void schedule_keyed(const EventKey& key, uint32_t owner, EventFn fn);

  bool empty() const { return heap_.empty(); }

  /// Key/time of the earliest event; only valid when !empty().
  const EventKey& next_key() const;
  Time next_time() const { return next_key().t; }

  /// Pops and returns the earliest event. Only valid when !empty().
  Event pop_keyed();

 private:
  std::vector<Event> heap_;  // min-heap on key via std::*_heap
};

}  // namespace spbc::sim
