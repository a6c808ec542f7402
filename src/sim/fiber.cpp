#include "sim/fiber.hpp"

#include "util/assert.hpp"

#if SPBC_TSAN
#include <sanitizer/tsan_interface.h>
#endif
#if SPBC_ASAN
#include <sanitizer/asan_interface.h>
#endif

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

unsigned char* StackPool::acquire() {
  unsigned char* s;
  if (!free_.empty()) {
    s = free_.back().release();
    free_.pop_back();
#if SPBC_ASAN
    // A fiber destroyed while parked leaves its frames' scope poison behind.
    ASAN_UNPOISON_MEMORY_REGION(s, stack_size_);
#endif
  } else {
    // Default-initialized: pages stay untouched until the fiber's call chain
    // actually reaches them.
    s = new unsigned char[stack_size_];
    ++allocated_;
  }
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return s;
}

void StackPool::release(unsigned char* stack) {
  SPBC_ASSERT(live_ > 0);
  --live_;
  free_.emplace_back(stack);
}

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

Fiber::Fiber(std::function<void()> body, StackPool& pool)
    : body_(std::move(body)), pool_(&pool), stack_(pool.acquire()) {
  init_context(pool.stack_size());
}

Fiber::Fiber(std::function<void()> body, size_t stack_size)
    : body_(std::move(body)), stack_(new unsigned char[stack_size]) {
  SPBC_ASSERT(stack_size >= 16 * 1024);
  init_context(stack_size);
}

void Fiber::init_context(size_t stack_size) {
  int rc = getcontext(&ctx_);
  SPBC_ASSERT_MSG(rc == 0, "getcontext failed");
  ctx_.uc_stack.ss_sp = stack_;
  ctx_.uc_stack.ss_size = stack_size;
  ctx_.uc_link = nullptr;  // trampoline never falls through; it yields forever
  // makecontext only passes ints; split the this-pointer into two 32-bit
  // halves (the portable idiom for 64-bit pointers).
  auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
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

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>((static_cast<uintptr_t>(hi) << 32) |
                                        static_cast<uintptr_t>(lo));
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
    swapcontext(&self->ctx_, &self->sched_ctx_);
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
  __sanitizer_start_switch_fiber(&sched_fake_stack, ctx_.uc_stack.ss_sp,
                                 ctx_.uc_stack.ss_size);
#endif
  int rc = swapcontext(&sched_ctx_, &ctx_);
#if SPBC_ASAN
  __sanitizer_finish_switch_fiber(sched_fake_stack, nullptr, nullptr);
#endif
  SPBC_ASSERT(rc == 0);
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
  int rc = swapcontext(&ctx_, &sched_ctx_);
#if SPBC_ASAN
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_sched_bottom_,
                                  &asan_sched_size_);
#endif
  SPBC_ASSERT(rc == 0);
  g_current_fiber = this;
  state_ = State::kRunning;
  if (kill_requested_) throw FiberKilled{};
}

}  // namespace spbc::sim
