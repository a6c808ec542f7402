#pragma once
// Stackful cooperative fibers built on ucontext, with pooled stacks.
//
// Each simulated MPI rank runs as one fiber with its own stack, so workload
// code is written as ordinary blocking MPI-style code (no co_await, no state
// machines). At any moment either the scheduler or exactly one fiber is
// running *per OS thread*; the sharded engine keeps every fiber pinned to
// the thread that owns its shard, which keeps the simulation deterministic.
//
// Stacks come from a StackPool: at 100k-rank scale one stack per rank is the
// dominant allocation, so finished/killed fibers return their stack to the
// pool for the next spawn instead of retaining it for the engine's lifetime.
// Stacks are allocated with operator new[] *without* value-initialization:
// untouched pages are never faulted in, so resident memory tracks the deepest
// call chain actually reached, not the configured stack size.
//
// Failure injection kills a fiber by resuming it with a kill flag; the next
// yield point throws FiberKilled, unwinding the stack so RAII cleanup runs.

#include <ucontext.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define SPBC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPBC_TSAN 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define SPBC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPBC_ASAN 1
#endif
#endif

namespace spbc::sim {

/// Thrown inside a fiber when the engine kills it (failure injection).
/// Workload code must be exception-safe but should never catch this.
struct FiberKilled {};

/// Free-list of equally-sized fiber stacks. Not thread-safe: the sharded
/// engine keeps one pool per execution shard, so acquire/release always run
/// on the shard's owning thread.
class StackPool {
 public:
  explicit StackPool(size_t stack_size);

  size_t stack_size() const { return stack_size_; }

  /// Takes a stack from the free list (or allocates a fresh one).
  unsigned char* acquire();
  /// Returns a stack to the free list.
  void release(unsigned char* stack);

  /// Stacks currently held by live fibers.
  size_t live() const { return live_; }
  /// Highest concurrent live-stack count ever observed — the engine's
  /// peak-memory driver at scale.
  size_t peak_live() const { return peak_live_; }
  /// Distinct stacks ever allocated (live + pooled): how well reuse works.
  size_t allocated() const { return allocated_; }

 private:
  size_t stack_size_;
  std::vector<std::unique_ptr<unsigned char[]>> free_;
  size_t live_ = 0;
  size_t peak_live_ = 0;
  size_t allocated_ = 0;
};

class Fiber {
 public:
  enum class State : uint8_t { kReady, kRunning, kParked, kFinished };

  /// Pool-backed stack (the engine path). The stack returns to `pool` when
  /// the fiber is destroyed, which the engine does as soon as it finishes.
  Fiber(std::function<void()> body, StackPool& pool);
  /// Self-owned stack of `stack_size` bytes (standalone/test use).
  Fiber(std::function<void()> body, size_t stack_size);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  State state() const { return state_; }
  bool finished() const { return state_ == State::kFinished; }

  /// Scheduler-side: run the fiber until it yields or finishes.
  void resume();

  /// Fiber-side: return control to the scheduler. Throws FiberKilled if the
  /// fiber was killed while parked.
  void yield();

  /// Scheduler-side: mark for kill. Takes effect at the next resume();
  /// the fiber unwinds via FiberKilled.
  void kill() { kill_requested_ = true; }

  bool kill_requested() const { return kill_requested_; }

  void set_state(State s) { state_ = s; }

  /// The fiber currently executing on this thread, or nullptr when the
  /// scheduler runs.
  static Fiber* current();

 private:
  static void trampoline(unsigned hi, unsigned lo);
  void init_context(size_t stack_size);
  void run_body();

  std::function<void()> body_;
  StackPool* pool_ = nullptr;    // non-null: stack_ belongs to the pool
  unsigned char* stack_ = nullptr;
  ucontext_t ctx_{};
  ucontext_t sched_ctx_{};
  State state_ = State::kReady;
  bool kill_requested_ = false;
#if SPBC_TSAN
  void* tsan_fiber_ = nullptr;
  void* tsan_sched_fiber_ = nullptr;
#endif
#if SPBC_ASAN
  // ASan must know which stack runs: it unpoisons the current stack on a
  // throw (the FiberKilled unwind), and a fiber stack it does not know
  // keeps stale scope poison that a later frame trips over.
  void* asan_fake_stack_ = nullptr;
  const void* asan_sched_bottom_ = nullptr;
  size_t asan_sched_size_ = 0;
#endif
};

}  // namespace spbc::sim
