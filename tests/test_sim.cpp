// Unit tests: discrete-event engine, fibers, event queue, topology.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/topology.hpp"

namespace spbc::sim {
namespace {

TEST(EventQueue, PopsInKeyOrder) {
  // Scrambled keys with ties on t and, within a tie, on shard: pops must
  // come out in lexicographic (t, shard, seq) order, each with its owner.
  const std::vector<EventKey> sorted{
      {1.0, 0, 4}, {1.0, 2, 0}, {1.0, 2, 7}, {1.0, 5, 1},
      {2.0, 0, 0}, {2.0, 1, 3}, {2.0, 1, 9}, {3.0, 0, 2}};
  const std::vector<size_t> scramble{6, 1, 7, 3, 0, 5, 2, 4};
  EventQueue q;
  std::vector<size_t> ran;
  for (size_t i : scramble)
    q.schedule_keyed(sorted[i], static_cast<uint32_t>(100 + i),
                     [&ran, i] { ran.push_back(i); });
  for (size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_FALSE(q.empty());
    EXPECT_DOUBLE_EQ(q.next_time(), sorted[i].t);
    EventQueue::Event e = q.pop_keyed();
    EXPECT_EQ(e.key.t, sorted[i].t);
    EXPECT_EQ(e.key.shard, sorted[i].shard);
    EXPECT_EQ(e.key.seq, sorted[i].seq);
    EXPECT_EQ(e.owner, 100 + i);
    e.fn();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Engine, TimeAdvancesMonotonically) {
  Engine e;
  std::vector<Time> stamps;
  e.at(0.5, [&] { stamps.push_back(e.now()); });
  e.at(0.25, [&] { stamps.push_back(e.now()); });
  e.at(1.0, [&] { stamps.push_back(e.now()); });
  e.run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_DOUBLE_EQ(stamps[0], 0.25);
  EXPECT_DOUBLE_EQ(stamps[1], 0.5);
  EXPECT_DOUBLE_EQ(stamps[2], 1.0);
}

TEST(Engine, FiberWaitAdvancesVirtualTime) {
  Engine e;
  Time end = -1;
  e.spawn([&] {
    e.wait(1.5);
    e.wait(0.5);
    end = e.now();
  });
  e.run();
  EXPECT_DOUBLE_EQ(end, 2.0);
}

TEST(Engine, TwoFibersInterleaveDeterministically) {
  Engine e;
  std::vector<int> order;
  e.spawn([&] {
    order.push_back(1);
    e.wait(1.0);
    order.push_back(3);
  });
  e.spawn([&] {
    order.push_back(2);
    e.wait(0.5);
    order.push_back(4);  // wakes at 0.5, before fiber 1's 1.0
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
}

TEST(Engine, ParkUnparkRoundTrip) {
  Engine e;
  bool done = false;
  Engine::TaskId id = e.spawn([&] {
    e.park();
    done = true;
  });
  e.at(3.0, [&] { e.unpark(id); });
  e.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, KillUnwindsStackWithDestructors) {
  Engine e;
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  Engine::TaskId id = e.spawn([&] {
    Sentinel s{&destroyed};
    e.park();  // killed here
    FAIL() << "should not resume";
  });
  e.at(1.0, [&] { e.kill(id); });
  e.run();
  EXPECT_TRUE(destroyed);
  EXPECT_TRUE(e.task_finished(id));
}

TEST(Engine, DeadlockDetectedGracefully) {
  Engine e;
  e.set_abort_on_deadlock(false);
  e.spawn([&] { e.park(); });  // nobody will wake it
  e.run();
  EXPECT_TRUE(e.deadlocked());
  EXPECT_EQ(e.live_task_count(), 1u);
}

TEST(Engine, SpawnFromFiber) {
  Engine e;
  int child_ran = 0;
  e.spawn([&] {
    e.spawn([&] { ++child_ran; });
    e.wait(1.0);
  });
  e.run();
  EXPECT_EQ(child_ran, 1);
}

TEST(Engine, ManyFibersScale) {
  Engine e(64 * 1024);
  int finished = 0;
  for (int i = 0; i < 512; ++i) {
    e.spawn([&e, &finished, i] {
      e.wait(0.001 * (i % 7));
      ++finished;
    });
  }
  e.run();
  EXPECT_EQ(finished, 512);
}

constexpr size_t kFiberStack = 64 * 1024;

// Divides through volatile operands, so the SSE unit rounds 1/3 at run time
// under the calling context's MXCSR rounding mode.
__attribute__((noinline)) double one_third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return one / three;
}

TEST(Fiber, FloatControlStateIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one_third();
  double upward = 0;
  double upward_after_resume = 0;
  int mode_after_resume = -1;
  Fiber f(
      [&] {
        std::fesetround(FE_UPWARD);
        upward = one_third();
        Fiber::current()->yield();
        mode_after_resume = std::fegetround();
        upward_after_resume = one_third();
        std::fesetround(FE_TONEAREST);
      },
      kFiberStack);
  f.resume();
  // The scheduler keeps its own rounding mode, in x87 and in SSE.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one_third(), nearest);
  f.resume();
  ASSERT_TRUE(f.finished());
  EXPECT_GT(upward, nearest);
  EXPECT_EQ(mode_after_resume, FE_UPWARD);
  EXPECT_EQ(upward_after_resume, upward);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// The compiler places an alignas(16) local assuming the ABI's 16-byte stack
// alignment at function entry, so a misaligned fiber stack shows here. The
// volatile pointer keeps the optimizer from folding the check to true.
__attribute__((noinline)) bool aligned_local_is_aligned() {
  alignas(16) unsigned char local[16];
  void* volatile addr = local;
  return reinterpret_cast<uintptr_t>(addr) % 16 == 0;
}

TEST(Fiber, StackAlignedAtEntryAndAfterResume) {
  std::vector<bool> aligned;
  Fiber f(
      [&] {
        aligned.push_back(aligned_local_is_aligned());
        for (int i = 0; i < 4; ++i) {
          Fiber::current()->yield();
          aligned.push_back(aligned_local_is_aligned());
        }
      },
      kFiberStack);
  while (!f.finished()) f.resume();
  EXPECT_EQ(aligned, std::vector<bool>(5, true));
}

TEST(Fiber, ExceptionsUnwindInsideFiberAcrossYields) {
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  bool caught = false;
  bool destroyed = false;
  bool ran_after_kill = false;
  Fiber f(
      [&] {
        Sentinel s{&destroyed};
        try {
          Fiber::current()->yield();
          throw std::runtime_error("inside fiber");
        } catch (const std::runtime_error& e) {
          caught = std::string(e.what()) == "inside fiber";
        }
        Fiber::current()->yield();  // killed here
        ran_after_kill = true;
      },
      kFiberStack);
  f.resume();
  EXPECT_FALSE(caught);
  f.resume();
  EXPECT_TRUE(caught);
  EXPECT_FALSE(destroyed);
  f.kill();
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_TRUE(destroyed);
  EXPECT_FALSE(ran_after_kill);
}

TEST(Fiber, LocalsSurviveInterleavedSwitches) {
  constexpr int kFibers = 8;
  constexpr uint64_t kYields = 100000;
  struct Sums {
    uint64_t s1, s2, s3, s4, s5;
  };
  std::vector<Sums> out(kFibers, Sums{0, 0, 0, 0, 0});
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>(
        [&out, i] {
          // Five sums, the counter and the id stay live across every yield,
          // more values than there are callee-saved registers.
          const uint64_t id = static_cast<uint64_t>(i);
          uint64_t s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0;
          for (uint64_t k = 1; k <= kYields; ++k) {
            s1 += k;
            s2 += (id + 1) * k;
            s3 += k * k;
            s4 += id + 1;
            s5 += 2 * k + id;
            Fiber::current()->yield();
          }
          out[i] = Sums{s1, s2, s3, s4, s5};
        },
        kFiberStack));
  }
  // Round-robin, so each fiber resumes after seven others ran.
  for (bool any = true; any;) {
    any = false;
    for (auto& f : fibers) {
      if (f->finished()) continue;
      f->resume();
      any = true;
    }
  }
  const uint64_t n = kYields;
  for (int i = 0; i < kFibers; ++i) {
    const uint64_t id = static_cast<uint64_t>(i);
    EXPECT_EQ(out[i].s1, n * (n + 1) / 2) << "fiber " << i;
    EXPECT_EQ(out[i].s2, (id + 1) * n * (n + 1) / 2) << "fiber " << i;
    EXPECT_EQ(out[i].s3, n * (n + 1) * (2 * n + 1) / 6) << "fiber " << i;
    EXPECT_EQ(out[i].s4, (id + 1) * n) << "fiber " << i;
    EXPECT_EQ(out[i].s5, n * (n + 1) + id * n) << "fiber " << i;
  }
}

TEST(Topology, NodeMapping) {
  Topology t(64, 8);
  EXPECT_EQ(t.nranks(), 512);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(7), 0);
  EXPECT_EQ(t.node_of(8), 1);
  EXPECT_EQ(t.node_of(511), 63);
  EXPECT_TRUE(t.same_node(8, 15));
  EXPECT_FALSE(t.same_node(7, 8));
}

TEST(Topology, ForRanksFactory) {
  Topology t = Topology::for_ranks(32, 4);
  EXPECT_EQ(t.nodes(), 8);
  EXPECT_EQ(t.ranks_per_node(), 4);
}

}  // namespace
}  // namespace spbc::sim
