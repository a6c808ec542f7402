#include "net/network.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spbc::net {

namespace {
// splitmix64-style mixer for the order-independent jitter draw.
inline uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
}  // namespace

Network::Network(sim::Engine& engine, const sim::Topology& topo, NetworkParams params)
    : engine_(engine),
      topo_(topo),
      params_(params),
      chan_rows_(static_cast<size_t>(topo.nranks())),
      nic_free_at_(static_cast<size_t>(topo.total_nodes()), sim::kTimeZero) {}

sim::Time Network::latency(int src, int dst) const {
  return node_of(src) == node_of(dst) ? params_.intra_latency
                                      : params_.inter_latency;
}

double Network::bandwidth(int src, int dst) const {
  return node_of(src) == node_of(dst) ? params_.intra_bandwidth
                                      : params_.inter_bandwidth;
}

sim::Time Network::wire_time(int src_rank, int dst_rank, uint64_t bytes) const {
  return latency(src_rank, dst_rank) +
         static_cast<double>(bytes) / bandwidth(src_rank, dst_rank);
}

Network::Chan& Network::channel(int src, int dst) {
  ChanRow& row = chan_rows_[static_cast<size_t>(src)];
  if (row.cells.empty()) row.cells.assign(8, Chan{});
  size_t mask = row.cells.size() - 1;
  size_t i = (static_cast<size_t>(dst) * 0x9E3779B9u) & mask;
  while (row.cells[i].dst != dst) {
    if (row.cells[i].dst == -1) {
      if (row.count * 10 >= row.cells.size() * 7) {
        // Grow and rehash; rows stay small (a rank talks to few peers).
        std::vector<Chan> old = std::move(row.cells);
        row.cells.assign(old.size() * 2, Chan{});
        row.count = 0;
        for (const Chan& c : old)
          if (c.dst != -1) {
            size_t m2 = row.cells.size() - 1;
            size_t j = (static_cast<size_t>(c.dst) * 0x9E3779B9u) & m2;
            while (row.cells[j].dst != -1) j = (j + 1) & m2;
            row.cells[j] = c;
            ++row.count;
          }
        return channel(src, dst);
      }
      row.cells[i].dst = dst;
      ++row.count;
      return row.cells[i];
    }
    i = (i + 1) & mask;
  }
  return row.cells[i];
}

sim::Time Network::submit(const Transfer& t, ArrivalFn on_arrival) {
  return submit_routed(t, t.dst_rank, std::move(on_arrival));
}

sim::Time Network::submit_routed(const Transfer& t, int route_rank,
                                 ArrivalFn on_arrival) {
  SPBC_ASSERT(t.src_rank >= 0 && t.src_rank < topo_.nranks());
  SPBC_ASSERT(t.dst_rank >= 0 && t.dst_rank < topo_.nranks());

  Chan& chan = channel(t.src_rank, t.dst_rank);

  sim::Time now = engine_.now();
  sim::Time lat = latency(t.src_rank, t.dst_rank);
  if (params_.jitter_frac > 0.0) {
    // Draw from the channel's own counted stream: independent of the global
    // submit interleaving, so identical across shard/thread layouts.
    uint64_t h = mix64(params_.jitter_seed ^
                       mix64((static_cast<uint64_t>(t.src_rank) << 32) ^
                             static_cast<uint64_t>(t.dst_rank) ^
                             (static_cast<uint64_t>(chan.submits) << 20)));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    lat *= 1.0 + params_.jitter_frac * u;
  }
  ++chan.submits;
  double serialize =
      static_cast<double>(t.bytes) / bandwidth(t.src_rank, t.dst_rank);

  sim::Time start = now;
  bool inter_node = node_of(t.src_rank) != node_of(t.dst_rank);
  if (inter_node && params_.model_nic_contention) {
    // The source NIC injects one message at a time.
    auto node = static_cast<size_t>(node_of(t.src_rank));
    start = std::max(start, nic_free_at_[node]);
    nic_free_at_[node] = start + serialize;
  }

  sim::Time arrival = start + lat + serialize;

  // Healing partitions: a message crossing a partitioned boundary during the
  // outage is held in the fabric and lands after the heal. The hold runs
  // before the FIFO clamp so later same-channel traffic queues behind it.
  if (!params_.partitions.empty()) {
    const int src_node = node_of(t.src_rank);
    const int dst_node = node_of(t.dst_rank);
    for (const PartitionPhase& p : params_.partitions) {
      if (now < p.start || now >= p.heal) continue;
      if ((src_node < p.boundary_node) == (dst_node < p.boundary_node))
        continue;
      sim::Time healed = p.heal + lat + serialize;
      if (healed > arrival) {
        partition_holds_.fetch_add(1, std::memory_order_relaxed);
        partition_stall_.fetch_add(healed - arrival,
                                   std::memory_order_relaxed);
        arrival = healed;
      }
    }
  }

  // FIFO per channel: never deliver before an earlier message on the same
  // (src,dst) channel, even if jitter says otherwise.
  arrival = std::max(arrival, chan.last_arrival);
  chan.last_arrival = arrival;

  int shard = shard_of_ ? shard_of_(route_rank) : 0;
  engine_.at_on(shard, arrival, std::move(on_arrival));
  return arrival;
}

}  // namespace spbc::net
