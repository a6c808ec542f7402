#pragma once
// Stackful cooperative fibers with pooled stacks, switched by a small
// hand-written x86-64 stack switch (sim/fiber.cpp).
//
// Each simulated MPI rank runs as one fiber with its own stack, so workload
// code is written as ordinary blocking MPI-style code (no co_await, no state
// machines). At any moment either the scheduler or exactly one fiber is
// running *per OS thread*; the sharded engine keeps every fiber pinned to
// the thread that owns its shard, which keeps the simulation deterministic.
//
// Switch contract. `spbc_switch_stack(&save_sp, to_sp)` is an ordinary SysV
// call, so the compiler already spills every caller-saved register around
// it. The switch pushes only the callee-saved registers (rbp, rbx, r12-r15)
// plus one 8-byte slot holding MXCSR and the x87 control word (rounding
// mode, exception masks, precision), stores rsp into `save_sp`, loads
// `to_sp`, and restores in reverse. It makes no syscall: the signal mask is
// neither saved nor restored, since the simulator never changes it.
// A fresh fiber's stack is laid out by hand so that the first switch into it
// "returns" into a two-instruction entry stub, which jumps to the trampoline
// with rsp + 8 16-byte aligned, as the ABI requires at function entry. The
// slot above the stub holds a fake return address of 0, so unwinders and
// debugger backtraces stop at the trampoline. The initial FP control word is
// the creating thread's.
//
// x86-64 Linux is the only target; a port is about 20 lines of assembly.
// CET user shadow stacks (off by default on Linux) are not supported: the
// switch `ret`s to an address the shadow stack never saw.
//
// Stacks come from a StackPool: at 100k-rank scale one stack per rank is the
// dominant allocation, so finished/killed fibers return their stack to the
// pool for the next spawn instead of retaining it for the engine's lifetime.
// The pool carves stacks from anonymous MAP_NORESERVE mappings of
// kStacksPerSlab stacks each and unmaps them when it dies. Untouched pages
// are never faulted in, so resident memory tracks the deepest call chain
// actually reached, not the configured stack size, and no allocator header
// or heap layout decides which pages a stack shares. One mapping per slab,
// not per stack, keeps a 131k-rank run far below vm.max_map_count.
//
// Failure injection kills a fiber by resuming it with a kill flag; the next
// yield point throws FiberKilled, unwinding the stack so RAII cleanup runs.

#if !defined(__x86_64__)
#error "sim::Fiber's stack switch is x86-64 only; a port is ~20 lines of asm"
#endif

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
  static constexpr size_t kStacksPerSlab = 64;

  explicit StackPool(size_t stack_size);
  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  size_t stack_size() const { return stack_size_; }

  /// Takes a stack from the free list (or carves a fresh one).
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
  /// Bytes of the pool's slabs resident in memory (mincore): the pages the
  /// deepest call chain of any fiber on each stack touched.
  size_t resident_bytes() const;

 private:
  size_t stack_size_;
  std::vector<unsigned char*> free_;
  std::vector<unsigned char*> slabs_;  // each kStacksPerSlab stacks long
  size_t carved_ = 0;                  // stacks carved from slabs_.back()
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
  static void trampoline(Fiber* self);
  void init_context();
  void run_body();

  std::function<void()> body_;
  StackPool* pool_ = nullptr;    // non-null: stack_ belongs to the pool
  unsigned char* stack_ = nullptr;
  size_t stack_size_;
  void* sp_ = nullptr;        // fiber's saved stack pointer while switched out
  void* sched_sp_ = nullptr;  // scheduler's saved stack pointer while it runs
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
