#pragma once
// Network model.
//
// Models the paper's testbed shape: shared-memory communication inside a node
// and an InfiniBand-class interconnect (used via IPoIB) between nodes.
// Messages experience latency + size/bandwidth, per-source-node NIC injection
// serialization for inter-node traffic, and strict per-(src,dst) FIFO — the
// property the MPI standard requires and that SPBC's per-channel seqnums rely
// on.
//
// Optional latency jitter (multiplicative, deterministic per seed) perturbs
// cross-channel message interleavings without violating per-channel FIFO.
// The channel-determinism checker runs the same application under different
// jitter seeds and asserts identical per-channel send sequences.
//
// Engine integration: arrivals are scheduled on the key shard owning the
// *routing* rank (the destination by default), so delivery callbacks mutate
// only that shard's state. Per-channel FIFO state lives in flat per-source
// rows — owned by the sender's shard, so submits from concurrent shard
// threads never share a row. The jitter draw is a counter-hash of the
// channel and its submit count, independent of cross-channel submit order
// (and so identical for every shard/thread configuration).

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "sim/topology.hpp"

namespace spbc::net {

/// One healing-partition window (see NetworkParams::partitions).
struct PartitionPhase {
  sim::Time start = 0;
  sim::Time heal = 0;
  int boundary_node = 0;  // side A: node < boundary_node; side B: the rest
};

struct NetworkParams {
  // Intra-node (shared memory) path.
  sim::Time intra_latency = sim::usec(0.6);
  double intra_bandwidth = 6.0e9;  // bytes/s

  // Inter-node path (IPoIB over IB 20G, per the paper's setup).
  sim::Time inter_latency = sim::usec(12.0);
  double inter_bandwidth = 1.0e9;  // bytes/s

  // Per-message software overhead charged to the sender (MPI stack cost).
  sim::Time send_overhead = sim::usec(0.35);

  // NIC injection serialization applies to inter-node messages only.
  bool model_nic_contention = true;

  // Multiplicative latency jitter in [1, 1+jitter_frac); 0 disables.
  double jitter_frac = 0.0;
  uint64_t jitter_seed = 0;

  // Healing network partitions (hostile workload matrix; DESIGN.md §16):
  // during [start, heal) messages crossing the boundary — one endpoint on a
  // node < boundary_node, the other on a node >= it — are held in the fabric
  // and land no earlier than heal time plus their normal wire time, modeling
  // a switch/uplink outage that heals without dropping traffic. Per-channel
  // FIFO still holds (the clamp runs after the hold). Empty = no partitions;
  // every arrival time is byte-identical to the unpartitioned run.
  std::vector<PartitionPhase> partitions{};
};

/// A transfer handed to the network; `on_arrival` fires at the destination
/// when the last byte lands.
struct Transfer {
  int src_rank = -1;
  int dst_rank = -1;
  uint64_t bytes = 0;
};

class Network {
 public:
  using ArrivalFn = std::function<void()>;

  Network(sim::Engine& engine, const sim::Topology& topo, NetworkParams params);

  const NetworkParams& params() const { return params_; }
  const sim::Topology& topology() const { return topo_; }

  /// Rank -> key shard map for arrival routing (the machine wires its
  /// cluster map here). Unset = everything on shard 0.
  void set_shard_of(std::function<int(int)> shard_of) {
    shard_of_ = std::move(shard_of);
  }

  /// Rank -> physical node map (the machine wires its dynamic binding here:
  /// spare-node hot-swap and shrunk restart move ranks off their block-layout
  /// home). Unset = the topology's static block layout. Same-node checks and
  /// NIC indexing consult it, so traffic to a migrated rank rides the new
  /// node's NIC.
  void set_node_of(std::function<int(int)> node_of) {
    node_of_ = std::move(node_of);
  }

  /// Submits a transfer; schedules on_arrival at the computed arrival time
  /// on the destination rank's shard. FIFO per (src,dst) is guaranteed
  /// regardless of jitter. Returns the arrival time.
  sim::Time submit(const Transfer& t, ArrivalFn on_arrival);

  /// Like submit(), but the arrival callback runs on `route_rank`'s shard
  /// (staging drains route arrivals to the fragment's home rank, whose entry
  /// tables the callback mutates).
  sim::Time submit_routed(const Transfer& t, int route_rank,
                          ArrivalFn on_arrival);

  /// Pure cost query (no event scheduled): the time a `bytes`-sized message
  /// from src to dst would occupy the wire, excluding queuing.
  sim::Time wire_time(int src_rank, int dst_rank, uint64_t bytes) const;

  /// Sender-side overhead for one message (charged by the MPI layer).
  sim::Time send_overhead() const { return params_.send_overhead; }

  /// Messages held by a healing-partition window, and the total extra
  /// in-fabric delay they accumulated (hostile-shape accounting).
  uint64_t partition_msgs_held() const {
    return partition_holds_.load(std::memory_order_relaxed);
  }
  sim::Time partition_stall_time() const {
    return partition_stall_.load(std::memory_order_relaxed);
  }

 private:
  // Per-(src,dst) FIFO/jitter state, stored in a flat open-addressed row per
  // source rank (same idiom as TrafficMatrix). A row is only ever touched by
  // its source rank's shard.
  struct Chan {
    int dst = -1;  // -1 = empty cell
    sim::Time last_arrival = sim::kTimeZero;
    uint32_t submits = 0;  // per-channel jitter counter
  };
  struct ChanRow {
    std::vector<Chan> cells;
    size_t count = 0;
  };
  Chan& channel(int src, int dst);

  int node_of(int rank) const {
    return node_of_ ? node_of_(rank) : topo_.node_of(rank);
  }
  sim::Time latency(int src, int dst) const;
  double bandwidth(int src, int dst) const;

  sim::Engine& engine_;
  sim::Topology topo_;
  NetworkParams params_;
  std::function<int(int)> shard_of_;
  std::function<int(int)> node_of_;

  std::vector<ChanRow> chan_rows_;  // indexed by src rank
  // Per-node NIC next-free time (inter-node injection serialization). With
  // node-colocated clusters a node belongs to one shard; threaded runs
  // require colocation (enforced by the machine).
  std::vector<sim::Time> nic_free_at_;

  std::atomic<uint64_t> partition_holds_{0};
  std::atomic<sim::Time> partition_stall_{0.0};
};

}  // namespace spbc::net
