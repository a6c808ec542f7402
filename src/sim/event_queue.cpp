#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace spbc::sim {

namespace {
constexpr uint32_t kKindShift = 30;
constexpr uint32_t kRefMask = (1u << kKindShift) - 1;

// Heap order: `after(a, b)` is true when a pops after b. A functor, not a
// function pointer, so the sift loops inline the comparison.
struct After {
  template <class Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.t != b.t) return a.t > b.t;
    if (a.shard != b.shard) return a.shard > b.shard;
    return a.seq > b.seq;
  }
};
constexpr After after;

// A 4-ary min-heap: half the depth of a binary heap, and a node's four
// children share one 96-byte run of the array. Keys are unique, so the pop
// order is the key order whatever the arity.
constexpr size_t kArity = 4;

template <class Entry>
void sift_up(std::vector<Entry>& h, size_t i) {
  const Entry e = h[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!after(h[parent], e)) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

template <class Entry>
void sift_down(std::vector<Entry>& h, size_t i) {
  const size_t n = h.size();
  const Entry e = h[i];
  for (;;) {
    const size_t first = kArity * i + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t end = std::min(first + kArity, n);
    for (size_t c = first + 1; c < end; ++c)
      if (after(h[best], h[c])) best = c;
    if (!after(e, h[best])) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = e;
}
}  // namespace

void EventQueue::schedule(Event&& ev) {
  const Kind kind = ev.kind;
  Entry e{ev.key.t, ev.key.shard, static_cast<uint32_t>(ev.task), ev.key.seq};
  if (kind == Kind::kCall) {
    if (free_slots_.empty()) {
      e.ref = static_cast<uint32_t>(slab_.size());
      slab_.emplace_back();
    } else {
      e.ref = free_slots_.back();
      free_slots_.pop_back();
    }
    slab_[e.ref] = Closure{std::move(ev.fn), ev.owner};
  }
  SPBC_ASSERT_MSG(e.ref <= kRefMask, "event slot/task id overflow " << e.ref);
  e.ref |= static_cast<uint32_t>(kind) << kKindShift;
  if (!has_front_ && (heap_.empty() || after(heap_.front(), e))) {
    front_ = e;
    has_front_ = true;
    return;
  }
  // The front stays below every heap entry: the later of the front and the
  // newcomer joins the heap.
  if (has_front_ && after(front_, e)) std::swap(e, front_);
  heap_.push_back(e);
  sift_up(heap_, heap_.size() - 1);
}

EventKey EventQueue::next_key() const {
  SPBC_ASSERT_MSG(!empty(), "next_key on empty queue");
  const Entry& e = has_front_ ? front_ : heap_.front();
  return EventKey{e.t, e.shard, e.seq};
}

EventQueue::Event EventQueue::pop() {
  SPBC_ASSERT_MSG(!empty(), "pop on empty queue");
  Entry e = front_;
  if (has_front_) {
    has_front_ = false;
  } else {
    e = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(heap_, 0);
  }
  const auto kind = static_cast<Kind>(e.ref >> kKindShift);
  const uint32_t ref = e.ref & kRefMask;
  const EventKey key{e.t, e.shard, e.seq};
  if (kind != Kind::kCall)
    return Event{key, kind, 0, static_cast<int32_t>(ref), {}};
  Closure& c = slab_[ref];
  Event out{key, kind, c.owner, -1, std::move(c.fn)};
  c.fn = nullptr;  // release the closure's captures now
  free_slots_.push_back(ref);
  return out;
}

}  // namespace spbc::sim
