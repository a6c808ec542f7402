#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include "util/assert.hpp"

#if SPBC_TSAN
#include <sanitizer/tsan_interface.h>
#endif
#if SPBC_ASAN
#include <sanitizer/asan_interface.h>
#endif

// spbc_switch_stack(void** save_sp, void* to_sp): saves the callee-saved
// registers and the FP control state on the current stack, stores rsp into
// *save_sp, switches to to_sp and restores the same frame from there (see the
// contract in fiber.hpp). The saved frame, from to_sp upwards:
//   +0 MXCSR (4 bytes), x87 control word (2), pad (2)
//   +8 r15  +16 r14  +24 r13  +32 r12  +40 rbx  +48 rbp  +56 return address
//
// spbc_fiber_entry: a fresh fiber's first switch returns here, with `this`
// in r12 and &Fiber::trampoline in r13.
asm(R"(
  .text
  .globl spbc_switch_stack
  .hidden spbc_switch_stack
  .type spbc_switch_stack, @function
  .p2align 4
spbc_switch_stack:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size spbc_switch_stack, .-spbc_switch_stack

  .globl spbc_fiber_entry
  .hidden spbc_fiber_entry
  .type spbc_fiber_entry, @function
  .p2align 4
spbc_fiber_entry:
  movq %r12, %rdi
  jmpq *%r13
  .size spbc_fiber_entry, .-spbc_fiber_entry
)");

extern "C" void spbc_switch_stack(void** save_sp, void* to_sp);
extern "C" void spbc_fiber_entry();

namespace spbc::sim {

namespace {
thread_local Fiber* g_current_fiber = nullptr;
}  // namespace

Fiber* Fiber::current() { return g_current_fiber; }

// ---------------------------------------------------------------------------
// StackPool
// ---------------------------------------------------------------------------

StackPool::StackPool(size_t stack_size) : stack_size_(stack_size) {
  SPBC_ASSERT(stack_size >= 16 * 1024);
}

StackPool::~StackPool() {
  SPBC_ASSERT_MSG(live_ == 0, live_ << " fiber stack(s) outlive their pool");
  for (unsigned char* slab : slabs_) {
#if SPBC_ASAN
    // Scope poison left on a stack must not outlive the mapping: the next
    // mapping at this address would inherit it.
    ASAN_UNPOISON_MEMORY_REGION(slab, stack_size_ * kStacksPerSlab);
#endif
    munmap(slab, stack_size_ * kStacksPerSlab);
  }
}

unsigned char* StackPool::acquire() {
  unsigned char* s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
#if SPBC_ASAN
    // A fiber destroyed while parked leaves its frames' scope poison behind.
    ASAN_UNPOISON_MEMORY_REGION(s, stack_size_);
#endif
  } else {
    if (slabs_.empty() || carved_ == kStacksPerSlab) {
      void* slab = mmap(nullptr, stack_size_ * kStacksPerSlab,
                        PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      SPBC_ASSERT_MSG(slab != MAP_FAILED, "fiber stack slab mmap failed");
      slabs_.push_back(static_cast<unsigned char*>(slab));
      carved_ = 0;
    }
    s = slabs_.back() + stack_size_ * carved_++;
    ++allocated_;
  }
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return s;
}

void StackPool::release(unsigned char* stack) {
  SPBC_ASSERT(live_ > 0);
  --live_;
  free_.push_back(stack);
}

size_t StackPool::resident_bytes() const {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t slab_bytes = stack_size_ * kStacksPerSlab;
  std::vector<unsigned char> vec((slab_bytes + page - 1) / page);
  size_t pages = 0;
  for (unsigned char* slab : slabs_) {
    SPBC_ASSERT_MSG(mincore(slab, slab_bytes, vec.data()) == 0,
                    "mincore over a fiber stack slab failed");
    for (unsigned char v : vec) pages += v & 1;
  }
  return pages * page;
}

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

Fiber::Fiber(std::function<void()> body, StackPool& pool)
    : body_(std::move(body)),
      pool_(&pool),
      stack_(pool.acquire()),
      stack_size_(pool.stack_size()) {
  init_context();
}

Fiber::Fiber(std::function<void()> body, size_t stack_size)
    : body_(std::move(body)),
      stack_(new unsigned char[stack_size]),
      stack_size_(stack_size) {
  SPBC_ASSERT(stack_size >= 16 * 1024);
  init_context();
}

void Fiber::init_context() {
  // The frame spbc_switch_stack pops on the first switch in, built at the
  // 16-byte-aligned stack top. Its `ret` lands on spbc_fiber_entry, which
  // jumps to trampoline with rsp at top - 8: the fake return address 0.
  auto top =
      (reinterpret_cast<uintptr_t>(stack_) + stack_size_) & ~uintptr_t{15};
  auto* slot = reinterpret_cast<uint64_t*>(top);
  slot[-1] = 0;  // fake return address: backtraces stop here
  slot[-2] = reinterpret_cast<uint64_t>(&spbc_fiber_entry);
  slot[-3] = 0;                                               // rbp
  slot[-4] = 0;                                               // rbx
  slot[-5] = reinterpret_cast<uint64_t>(this);                // r12
  slot[-6] = reinterpret_cast<uint64_t>(&Fiber::trampoline);  // r13
  slot[-7] = 0;                                               // r14
  slot[-8] = 0;                                               // r15
  uint32_t mxcsr;
  uint16_t x87cw;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87cw));
  slot[-9] = mxcsr | (uint64_t{x87cw} << 32);
  sp_ = &slot[-9];
#if SPBC_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  // A fiber must not be destroyed while running. A parked fiber destroyed
  // without a kill+resume cycle (Engine::unwind_parked) just loses its
  // stack: the destructors of its frames do not run.
#if SPBC_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (pool_ != nullptr)
    pool_->release(stack_);
  else
    delete[] stack_;
}

void Fiber::trampoline(Fiber* self) {
#if SPBC_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_sched_bottom_,
                                  &self->asan_sched_size_);
#endif
  self->run_body();
  // Mark finished and return control to the scheduler forever.
  self->state_ = State::kFinished;
  for (;;) {
    g_current_fiber = nullptr;
#if SPBC_TSAN
    __tsan_switch_to_fiber(self->tsan_sched_fiber_, 0);
#endif
#if SPBC_ASAN
    // nullptr: this stack is done, its fake frames can go.
    __sanitizer_start_switch_fiber(nullptr, self->asan_sched_bottom_,
                                   self->asan_sched_size_);
#endif
    spbc_switch_stack(&self->sp_, self->sched_sp_);
    // A finished fiber should never be resumed, but tolerate it.
  }
}

void Fiber::run_body() {
  try {
    body_();
  } catch (const FiberKilled&) {
    // Normal failure-injection unwind path.
  }
}

void Fiber::resume() {
  SPBC_ASSERT_MSG(state_ != State::kFinished, "resume of finished fiber");
  SPBC_ASSERT_MSG(g_current_fiber == nullptr, "nested fiber resume");
  state_ = State::kRunning;
  g_current_fiber = this;
#if SPBC_TSAN
  tsan_sched_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if SPBC_ASAN
  void* sched_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&sched_fake_stack, stack_, stack_size_);
#endif
  spbc_switch_stack(&sched_sp_, sp_);
#if SPBC_ASAN
  __sanitizer_finish_switch_fiber(sched_fake_stack, nullptr, nullptr);
#endif
  g_current_fiber = nullptr;
}

void Fiber::yield() {
  SPBC_ASSERT_MSG(g_current_fiber == this, "yield from non-current fiber");
  state_ = State::kParked;
  g_current_fiber = nullptr;
#if SPBC_TSAN
  __tsan_switch_to_fiber(tsan_sched_fiber_, 0);
#endif
#if SPBC_ASAN
  __sanitizer_start_switch_fiber(&asan_fake_stack_, asan_sched_bottom_,
                                 asan_sched_size_);
#endif
  spbc_switch_stack(&sp_, sched_sp_);
#if SPBC_ASAN
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_sched_bottom_,
                                  &asan_sched_size_);
#endif
  g_current_fiber = this;
  state_ = State::kRunning;
  if (kill_requested_) throw FiberKilled{};
}

}  // namespace spbc::sim
