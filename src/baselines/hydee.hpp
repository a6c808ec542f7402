#pragma once
// HydEE baseline (Guermouche et al., IPDPS 2012) — the comparator of
// Section 6.5.
//
// HydEE is, like SPBC, a hierarchical protocol that logs no events reliably.
// The difference is recovery: HydEE relies on send-determinism and a
// *central coordinator* that "notifies a process that it can replay the next
// message from logs once the recovering processes have acknowledged that all
// the inter-cluster messages that this message depends on have been
// replayed". We model that faithfully enough to expose the cost the paper
// measures:
//
//   * every replayed message needs a request -> grant round-trip with the
//     coordinator (one-way latency `coordinator_latency`, FIFO service time
//     `service_time` at the coordinator),
//   * grants toward one recovering rank are causally chained: the next
//     message for that rank is granted only after the previous one was
//     delivered and acknowledged (Lamport-clock order breaks ties),
//   * no pattern ids — HydEE predates the A -> A' transformation, so
//     id-based matching is off. (The NAS benchmarks of Fig. 6 use no
//     ANY_SOURCE, so recovery remains correct.)
//
// Everything else (logging, clustering, coordinated checkpoints, rollback
// announcements) is inherited from SpbcProtocol — matching the papers'
// shared lineage.

#include <deque>
#include <map>

#include "core/spbc.hpp"

namespace spbc::baselines {

class HydeeProtocol : public core::SpbcProtocol {
 public:
  explicit HydeeProtocol(core::SpbcConfig cfg);

  bool pattern_matching_enabled() const override { return false; }

  uint64_t grants_issued() const { return grants_; }

 protected:
  core::Replayer::Gate make_gate(int rank) override;

  /// Delivery acknowledgement: the recovering rank confirms the replayed
  /// message arrived; the coordinator then releases the next one. The chain
  /// is GLOBAL — "it notifies a process that it can replay the next message
  /// from logs once the recovering processes have acknowledged ..." — one
  /// replayed message is in flight at a time, in causal (Lamport) order.
  /// This serialization across the whole machine is precisely the
  /// scalability liability Section 6.6 attributes to HydEE.
  void on_replay_delivered(const mpi::Envelope& env) override;

 private:
  // Ordered by (lclock, replayer); equal keys keep their arrival order at
  // the coordinator, so the order never depends on worker threads.
  struct PendingGrant {
    uint64_t lclock;
    int replayer;  // env.src: the grant is delivered on its shard
    std::function<void()> proceed;
    bool operator<(const PendingGrant& o) const {
      if (lclock != o.lclock) return lclock < o.lclock;
      return replayer < o.replayer;
    }
  };

  // The coordinator's state is machine-global, so both run in serial
  // context (the coordinator latency exceeds the engine lookahead).
  void coordinator_enqueue(PendingGrant g);
  void try_grant();

  // Coordinator state: one causally ordered queue and one outstanding grant
  // for the whole machine; a FIFO server models the coordinator's CPU.
  std::deque<PendingGrant> pending_;
  bool chain_busy_ = false;
  sim::Time busy_until_ = 0;
  uint64_t grants_ = 0;
};

}  // namespace spbc::baselines
