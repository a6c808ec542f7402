#include "core/replayer.hpp"

#include "mpi/machine.hpp"
#include "util/assert.hpp"

namespace spbc::core {

void Replayer::configure(mpi::Machine* machine, int self_rank, int window) {
  machine_ = machine;
  self_ = self_rank;
  window_ = window;
  SPBC_ASSERT(window_ >= 1);
}

void Replayer::enqueue_for_cluster(
    SenderLog& log, const std::function<bool(int)>& in_cluster,
    const std::map<int, std::map<std::pair<int, int>, mpi::SeqWindow>>&
        windows_by_dst,
    std::map<int, std::map<std::pair<int, uint64_t>, std::function<void()>>>
        orphans_by_dst) {
  SPBC_ASSERT(machine_ != nullptr);
  static const std::map<std::pair<int, int>, mpi::SeqWindow> kNoWindows;
  auto& send_states = machine_->rank(self_);
  std::map<int, uint32_t> incs;  // per-destination incarnation cache
  size_t queued = 0;
  for (auto& e : log.entries()) {
    const int dst = e.env.dst;
    if (!in_cluster(dst)) continue;
    auto [iit, fresh] = incs.try_emplace(dst, 0);
    if (fresh) iit->second = machine_->incarnation(dst);
    const uint32_t inc = iit->second;
    if (e.queued_for_inc == inc) continue;  // already queued for this recovery
    auto wdit = windows_by_dst.find(dst);
    const auto& windows = wdit == windows_by_dst.end() ? kNoWindows : wdit->second;
    auto odit = orphans_by_dst.find(dst);
    auto* orphans = odit == orphans_by_dst.end() ? nullptr : &odit->second;
    int stream = send_states.stream_of(e.env.tag);
    auto wit = windows.find({e.env.ctx, stream});
    if (wit != windows.end() && wit->second.contains(e.env.seqnum)) {
      if (orphans != nullptr) {
        auto oit = orphans->find({e.env.ctx, e.env.seqnum});
        if (oit != orphans->end() && oit->second) oit->second();
      }
      continue;
    }
    e.queued_for_inc = inc;
    Item item;
    item.env = e.env;
    item.payload = &e.payload;
    if (orphans != nullptr) {
      auto oit = orphans->find({e.env.ctx, e.env.seqnum});
      if (oit != orphans->end()) item.orphan_done = std::move(oit->second);
    }
    ++send_states.send_state(dst, e.env.ctx, e.env.tag).replay_pending;
    queue_.push_back(std::move(item));
    ++queued;
  }
  if (queued > 0) pump();
}

void Replayer::pump() {
  while (outstanding_ < window_ && !queue_.empty()) {
    Item item = std::move(queue_.front());
    queue_.pop_front();
    ++outstanding_;
    if (gate_) {
      // HydEE-style: ask for clearance, then send. The gate may defer us
      // arbitrarily (coordinator round-trip).
      mpi::Envelope env = item.env;
      auto shared = std::make_shared<Item>(std::move(item));
      gate_(env, [this, shared] { launch(std::move(*shared)); });
    } else {
      launch(std::move(item));
    }
  }
}

void Replayer::launch(Item item) {
  mpi::Envelope env = item.env;
  auto orphan = std::make_shared<std::function<void()>>(std::move(item.orphan_done));
  uint64_t epoch = epoch_;
  machine_->replay_send(self_, env, *item.payload, [this, env, orphan, epoch] {
    if (epoch != epoch_) return;  // the sender rolled back mid-replay
    --outstanding_;
    ++replayed_total_;
    auto& ch = machine_->rank(self_).send_state(env.dst, env.ctx, env.tag);
    SPBC_ASSERT(ch.replay_pending > 0);
    --ch.replay_pending;
    if (ch.replay_pending == 0) machine_->rank(self_).wake();
    if (*orphan) (*orphan)();
    pump();
  });
}

void Replayer::reset() {
  queue_.clear();
  outstanding_ = 0;
  ++epoch_;
}

}  // namespace spbc::core
