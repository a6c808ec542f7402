#pragma once
// Deterministic event queue: a 4-ary min-heap ordered by (time, shard, seq).
//
// The key is the global tie-break rule for the sharded engine: `shard` is the
// *logical* (key) shard that scheduled the event and `seq` is that shard's
// own monotone counter. Because the key never mentions which physical queue
// or thread executes the event, merging any number of per-shard queues by
// smallest key reproduces the exact same global order for every shard count —
// the property the channel-determinism checker and every regression test
// depend on. Every key is unique, so the queue pops events in exactly that
// order. Nothing removes an event once scheduled: each one runs. Layout:
// DESIGN.md §12 (POD heap entries, closure slab, front slot, task events).

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
};

class EventQueue {
 public:
  using EventFn = std::function<void()>;
  /// Run a closure, or resume / wake a fiber task. A task event runs on its
  /// task's own key shard, so it carries no owner.
  enum class Kind : uint8_t { kCall, kResume, kWake };
  struct Event {
    EventKey key;
    Kind kind = Kind::kCall;
    uint32_t owner = 0;  // kCall: the key shard whose state fn mutates
    int32_t task = -1;   // kResume / kWake
    EventFn fn;          // kCall
  };

  /// Queues ev under its key. A call's owner is the context the engine
  /// restores around fn; it does not affect ordering.
  void schedule(Event&& ev);

  bool empty() const { return !has_front_ && heap_.empty(); }

  /// Key/time of the earliest event; only valid when !empty().
  EventKey next_key() const;
  Time next_time() const { return has_front_ ? front_.t : heap_.front().t; }

  /// Pops and returns the earliest event. Only valid when !empty().
  Event pop();

 private:
  struct Entry {
    Time t;
    uint32_t shard;
    uint32_t ref;  // kind in the top two bits, then task id or slab slot
    uint64_t seq;
  };
  Entry front_{};
  bool has_front_ = false;   // front_ undercuts every heap entry
  std::vector<Entry> heap_;  // 4-ary min-heap on key
  struct Closure {
    EventFn fn;
    uint32_t owner;
  };
  std::vector<Closure> slab_;  // kCall events' payload, by slot
  std::vector<uint32_t> free_slots_;
};

}  // namespace spbc::sim
