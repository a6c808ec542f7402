// Unit tests: network model — latency/bandwidth arithmetic, per-channel
// FIFO (with and without jitter), NIC injection serialization.

#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"

namespace spbc::net {
namespace {

NetworkParams flat_params() {
  NetworkParams p;
  p.intra_latency = sim::usec(1);
  p.intra_bandwidth = 1e9;
  p.inter_latency = sim::usec(10);
  p.inter_bandwidth = 1e8;
  p.model_nic_contention = false;
  return p;
}

TEST(Network, WireTimeIntraVsInter) {
  sim::Engine e;
  sim::Topology topo(2, 4);  // ranks 0-3 node 0, 4-7 node 1
  Network net(e, topo, flat_params());
  // intra: 1us + 1000/1e9 = 2us
  EXPECT_NEAR(net.wire_time(0, 1, 1000), 2e-6, 1e-12);
  // inter: 10us + 1000/1e8 = 20us
  EXPECT_NEAR(net.wire_time(0, 4, 1000), 20e-6, 1e-12);
}

TEST(Network, SubmitDeliversAtWireTime) {
  sim::Engine e;
  sim::Topology topo(2, 4);
  Network net(e, topo, flat_params());
  sim::Time arrived = -1;
  net.submit(Transfer{0, 4, 1000}, [&] { arrived = e.now(); });
  e.run();
  EXPECT_NEAR(arrived, 20e-6, 1e-12);
}

TEST(Network, PerChannelFifoUnderJitter) {
  sim::Engine e;
  sim::Topology topo(2, 4);
  NetworkParams p = flat_params();
  p.jitter_frac = 0.8;
  p.jitter_seed = 99;
  Network net(e, topo, p);
  std::vector<int> arrivals;
  for (int i = 0; i < 50; ++i)
    net.submit(Transfer{0, 4, 100}, [&arrivals, i] { arrivals.push_back(i); });
  e.run();
  ASSERT_EQ(arrivals.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(arrivals[static_cast<size_t>(i)], i);
}

TEST(Network, DistinctChannelsMayReorder) {
  sim::Engine e;
  sim::Topology topo(3, 1);
  NetworkParams p = flat_params();
  Network net(e, topo, p);
  std::vector<int> arrivals;
  // Big message 0->2 submitted first, small message 1->2 second: the small
  // one lands first because bandwidth delays the big one.
  net.submit(Transfer{0, 2, 1000000}, [&] { arrivals.push_back(0); });
  net.submit(Transfer{1, 2, 10}, [&] { arrivals.push_back(1); });
  e.run();
  EXPECT_EQ(arrivals, (std::vector<int>{1, 0}));
}

TEST(Network, NicSerializesInterNodeInjection) {
  sim::Engine e;
  sim::Topology topo(2, 2);
  NetworkParams p = flat_params();
  p.model_nic_contention = true;
  Network net(e, topo, p);
  sim::Time t1 = -1, t2 = -1;
  // Two messages from the same node injected back-to-back: the second waits
  // for the first's serialization (1e6 bytes / 1e8 B/s = 10ms each).
  net.submit(Transfer{0, 2, 1000000}, [&] { t1 = e.now(); });
  net.submit(Transfer{1, 3, 1000000}, [&] { t2 = e.now(); });
  e.run();
  EXPECT_NEAR(t1, 10e-6 + 0.01, 1e-9);
  EXPECT_NEAR(t2, 10e-6 + 0.02, 1e-9);  // queued behind the first injection
}

TEST(Network, IntraNodeSkipsNic) {
  sim::Engine e;
  sim::Topology topo(2, 2);
  NetworkParams p = flat_params();
  p.model_nic_contention = true;
  Network net(e, topo, p);
  sim::Time t1 = -1, t2 = -1;
  net.submit(Transfer{0, 1, 1000000}, [&] { t1 = e.now(); });
  net.submit(Transfer{0, 1, 1000000}, [&] { t2 = e.now(); });
  e.run();
  // Intra-node transfers do not share the NIC but FIFO still applies on the
  // channel; both computed from submit time (1us + 1ms), FIFO keeps order.
  EXPECT_NEAR(t1, 1e-6 + 1e-3, 1e-9);
  EXPECT_GE(t2, t1);
}

TEST(Network, JitterIsDeterministicPerSeed) {
  auto run_once = [](uint64_t seed) {
    sim::Engine e;
    sim::Topology topo(2, 1);
    NetworkParams p;
    p.jitter_frac = 0.5;
    p.jitter_seed = seed;
    Network net(e, topo, p);
    sim::Time arrived = -1;
    net.submit(Transfer{0, 1, 1000}, [&] { arrived = e.now(); });
    e.run();
    return arrived;
  };
  EXPECT_DOUBLE_EQ(run_once(1), run_once(1));
  EXPECT_NE(run_once(1), run_once(2));
}

}  // namespace
}  // namespace spbc::net
