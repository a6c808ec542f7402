// Microbenchmarks (google-benchmark) for the hot paths the protocol adds to
// the MPI library: the matching predicate with and without pattern ids
// (Section 5.2.1's "additionally to comparing the source and tag"), the
// sender-log append (the Table 2 overhead), the received-window update, the
// event queue, and fiber context switches.

#include <benchmark/benchmark.h>

#include "core/sender_log.hpp"
#include "mpi/matching.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"

namespace spbc {
namespace {

mpi::Envelope make_env(int src, int tag, uint64_t seq) {
  mpi::Envelope e;
  e.src = src;
  e.dst = 0;
  e.tag = tag;
  e.ctx = 0;
  e.seqnum = seq;
  e.bytes = 1024;
  return e;
}

void BM_MatchPredicatePlain(benchmark::State& state) {
  mpi::RequestState req;
  req.match_src = mpi::kAnySource;
  req.match_tag = 7;
  mpi::Envelope env = make_env(3, 7, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpi::MatchEngine::matches(req, env, false));
  }
}
BENCHMARK(BM_MatchPredicatePlain);

void BM_MatchPredicateWithIds(benchmark::State& state) {
  // The entire cost of the A -> A' transformation on the matching path: one
  // extra tuple comparison.
  mpi::RequestState req;
  req.match_src = mpi::kAnySource;
  req.match_tag = 7;
  req.pid = {2, 41};
  mpi::Envelope env = make_env(3, 7, 1);
  env.pid = {2, 41};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpi::MatchEngine::matches(req, env, true));
  }
}
BENCHMARK(BM_MatchPredicateWithIds);

void BM_UnexpectedQueueScan(benchmark::State& state) {
  mpi::MatchEngine engine;
  const int depth = static_cast<int>(state.range(0));
  for (int i = 0; i < depth; ++i) {
    mpi::Payload p;
    engine.on_envelope(make_env(1, 1000 + i, static_cast<uint64_t>(i + 1)), p, true, 0);
  }
  for (auto _ : state) {
    mpi::RequestState probe;
    probe.match_src = mpi::kAnySource;
    probe.match_tag = 1000 + depth - 1;  // worst case: last entry
    mpi::Status st;
    benchmark::DoNotOptimize(engine.iprobe(probe, &st));
  }
}
BENCHMARK(BM_UnexpectedQueueScan)->Arg(4)->Arg(32)->Arg(256);

void BM_SenderLogAppend(benchmark::State& state) {
  const uint64_t bytes = static_cast<uint64_t>(state.range(0));
  std::vector<unsigned char> buf(bytes, 0xab);
  core::SenderLog log;
  uint64_t seq = 0;
  for (auto _ : state) {
    mpi::Envelope e = make_env(0, 1, ++seq);
    e.bytes = bytes;
    log.append(e, mpi::Payload::from_bytes(buf.data(), bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_SenderLogAppend)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_SeqWindowAdd(benchmark::State& state) {
  mpi::SeqWindow w;
  uint64_t seq = 0;
  for (auto _ : state) {
    w.add(++seq);
    benchmark::DoNotOptimize(w.base());
  }
}
BENCHMARK(BM_SeqWindowAdd);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  uint64_t seq = 0;
  for (auto _ : state) {
    q.schedule(sim::EventQueue::Event{sim::EventKey{static_cast<double>(seq), 0, seq},
                                      sim::EventQueue::Kind::kCall, 0, -1, [] {}});
    ++seq;
    q.pop().fn();
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_FiberSwitch(benchmark::State& state) {
  sim::Engine e(64 * 1024);
  // One fiber that yields forever; measure resume+yield round trips.
  sim::Fiber fiber([] {
    for (;;) sim::Fiber::current()->yield();
  }, 64 * 1024);
  for (auto _ : state) {
    fiber.resume();
  }
  // The fiber stays parked; its stack is reclaimed with the object.
}
BENCHMARK(BM_FiberSwitch);

}  // namespace
}  // namespace spbc

BENCHMARK_MAIN();
