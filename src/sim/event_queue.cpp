#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace spbc::sim {

namespace {
struct KeyGreater {
  bool operator()(const EventQueue::Event& a,
                  const EventQueue::Event& b) const {
    return a.key > b.key;
  }
};
}  // namespace

void EventQueue::schedule_keyed(const EventKey& key, uint32_t owner,
                                EventFn fn) {
  heap_.push_back(Event{key, owner, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), KeyGreater{});
}

const EventKey& EventQueue::next_key() const {
  SPBC_ASSERT_MSG(!heap_.empty(), "next_key on empty queue");
  return heap_.front().key;
}

EventQueue::Event EventQueue::pop_keyed() {
  SPBC_ASSERT_MSG(!heap_.empty(), "pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), KeyGreater{});
  Event out = std::move(heap_.back());
  heap_.pop_back();
  return out;
}

}  // namespace spbc::sim
