#include "baselines/hydee.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spbc::baselines {

namespace {
// Calibrated to a software coordinator reached over IPoIB (the prototype the
// paper measured): a round-trip plus dependency bookkeeping costs tens to
// hundreds of microseconds per replayed message. Message-dense replays (LU's
// wavefront pencils) consume faster than the coordinator can grant, which is
// what pushes HydEE's recovery above the failure-free time in Fig. 6;
// coarse-grained replays (BT/SP) hide most of it.
constexpr sim::Time kCoordinatorLatency = sim::usec(40.0);  // one-way
constexpr sim::Time kServiceTime = sim::usec(30.0);  // per request at coordinator
}  // namespace

HydeeProtocol::HydeeProtocol(core::SpbcConfig cfg)
    : core::SpbcProtocol(std::move(cfg)) {}

core::Replayer::Gate HydeeProtocol::make_gate(int /*rank*/) {
  return [this](const mpi::Envelope& env, std::function<void()> proceed) {
    // Request travels to the coordinator.
    PendingGrant g{env.lclock, env.src, std::move(proceed)};
    machine_->engine().after_serial(
        kCoordinatorLatency,
        [this, g = std::move(g)]() mutable { coordinator_enqueue(std::move(g)); });
  };
}

void HydeeProtocol::coordinator_enqueue(PendingGrant g) {
  // Keep the queue in causal (Lamport clock) order: the coordinator releases
  // messages in dependency order.
  auto it = std::upper_bound(pending_.begin(), pending_.end(), g);
  pending_.insert(it, std::move(g));
  try_grant();
}

void HydeeProtocol::try_grant() {
  if (chain_busy_) return;
  if (pending_.empty()) return;
  PendingGrant g = std::move(pending_.front());
  pending_.pop_front();
  chain_busy_ = true;
  ++grants_;
  // FIFO coordinator CPU + grant flight back to the replayer.
  sim::Time now = machine_->engine().now();
  sim::Time start = std::max(now, busy_until_);
  busy_until_ = start + kServiceTime;
  sim::Time grant_arrival = busy_until_ + kCoordinatorLatency;
  machine_->engine().at_on(machine_->shard_of(g.replayer), grant_arrival,
                           [proceed = std::move(g.proceed)] { proceed(); });
}

void HydeeProtocol::on_replay_delivered(const mpi::Envelope& /*env*/) {
  // Acknowledgement flies back to the coordinator, which then releases the
  // next causally ordered replay.
  machine_->engine().after_serial(kCoordinatorLatency, [this] {
    chain_busy_ = false;
    try_grant();
  });
}

}  // namespace spbc::baselines
