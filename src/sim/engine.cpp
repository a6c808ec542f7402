#include "sim/engine.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/assert.hpp"

namespace spbc::sim {

// Per-thread execution context: which engine/shard the current event belongs
// to. Fibers run inside their resume event, so fiber-side calls (at, park,
// wait) see the owning shard's context. Saved/restored around each event.
struct Engine::ThreadCtx {
  Engine* eng = nullptr;
  ExecShard* sh = nullptr;      // exec shard executing, nullptr = serial/none
  int key = 0;                  // owner key shard of the current event
  bool parallel = false;        // inside a threaded window
  bool serial = false;          // inside a serial (barrier) event
  Engine::TaskId running_task = Engine::kInvalidTask;
};
thread_local Engine::ThreadCtx Engine::tl_;

Engine::Engine(size_t default_stack_size)
    : default_stack_size_(default_stack_size) {
  set_shard_plan(1, 1);
}

Engine::~Engine() = default;

void Engine::set_shard_plan(int key_shards, int exec_shards) {
  SPBC_ASSERT_MSG(key_shards >= 1, "bad key shard count " << key_shards);
  SPBC_ASSERT_MSG(tasks_.empty(), "set_shard_plan after spawn");
  for (auto& sh : shards_)
    SPBC_ASSERT_MSG(sh->queue.empty(), "set_shard_plan after schedule");
  SPBC_ASSERT_MSG(serial_q_.empty(), "set_shard_plan after schedule");
  if (exec_shards <= 0 || exec_shards > key_shards) exec_shards = key_shards;
  shards_.clear();
  shards_.reserve(static_cast<size_t>(exec_shards));
  for (int i = 0; i < exec_shards; ++i) {
    auto sh = std::make_unique<ExecShard>();
    sh->pool = std::make_unique<StackPool>(default_stack_size_);
    shards_.push_back(std::move(sh));
  }
  key_seq_.assign(static_cast<size_t>(key_shards), 0);
}

bool Engine::in_shard_event() const {
  return tl_.eng == this && tl_.sh != nullptr;
}

Time Engine::now() const {
  return in_shard_event() ? tl_.sh->now : global_now_;
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

EventKey Engine::stamp_key(Time t, const char* what) {
  // The ordering key is stamped by the *scheduling* context's key shard (the
  // origin): its sequence counter is only ever advanced by the one thread
  // executing that shard, so keys are race-free and — because they never
  // mention exec shards or threads — identical for every execution layout.
  // Outside a run the world is stopped and a single thread schedules: stamp
  // origin 0 with its shared counter, so same-time events keep their global
  // scheduling order (a wake queued on one shard and a kill on another
  // resolve in the order they were scheduled).
  const uint32_t origin = tl_.eng == this && (tl_.serial || tl_.sh != nullptr)
                              ? static_cast<uint32_t>(tl_.key)
                              : 0u;
  if (what != nullptr) {
    // Conservative-lookahead invariant, asserted in every mode so cheap
    // single-threaded runs validate what threaded windows rely on.
    Time tau = tl_.sh->now;
    SPBC_ASSERT_MSG(t - tau >= lookahead_ - 1e-12 * (1.0 + std::abs(tau)),
                    what << " inside lookahead window: t=" << t
                         << " now=" << tau << " lookahead=" << lookahead_);
  }
  return EventKey{t, origin, key_seq_[origin]++};
}

void Engine::at_on(int key_shard, Time t, std::function<void()> fn) {
  post(key_shard, {{t}, EventQueue::Kind::kCall,
                   static_cast<uint32_t>(key_shard), -1, std::move(fn)});
}

void Engine::post(int key_shard, EventQueue::Event&& ev) {
  SPBC_ASSERT(key_shard >= 0 && key_shard < key_shards());
  const bool cross = in_shard_event() && key_shard != tl_.key;
  ev.key = stamp_key(ev.key.t, cross ? "cross-shard schedule" : nullptr);
  ExecShard& sh = *shards_[static_cast<size_t>(exec_of(key_shard))];
  if (tl_.eng == this && tl_.parallel && &sh != tl_.sh) {
    // Another worker owns that queue right now: hand over via mailbox; the
    // coordinator applies it between windows (t >= window end, see above).
    std::lock_guard<std::mutex> g(sh.mbox_mu);
    sh.mbox.push_back(std::move(ev));
    return;
  }
  SPBC_ASSERT_MSG(ev.key.t >= sh.now, "scheduling into the past: t="
                                          << ev.key.t << " now=" << sh.now);
  sh.queue.schedule(std::move(ev));
}

void Engine::at_serial(Time t, std::function<void()> fn) {
  const EventKey key =
      stamp_key(t, in_shard_event() ? "serial schedule" : nullptr);
  EventQueue::Event ev{key, EventQueue::Kind::kCall, key.shard, -1,
                       std::move(fn)};
  if (tl_.eng == this && tl_.parallel) {
    std::lock_guard<std::mutex> g(serial_mbox_mu_);
    serial_mbox_.push_back(std::move(ev));
    return;
  }
  SPBC_ASSERT_MSG(t >= global_now_,
                  "serial event in the past: t=" << t << " now=" << global_now_);
  serial_q_.schedule(std::move(ev));
}

void Engine::at(Time t, std::function<void()> fn) {
  // Serial context or outside a run: events scheduled while the world is
  // stopped usually orchestrate global actions (failure injection, recovery
  // continuations) — keep them at the barrier.
  if (in_shard_event())
    at_on(tl_.key, t, std::move(fn));
  else
    at_serial(t, std::move(fn));
}

void Engine::run_serial(std::function<void()> fn) {
  if (!in_shard_event()) {
    // Already serial or outside a run: the caller is alone.
    fn();
    return;
  }
  at_serial(now() + lookahead_, std::move(fn));
}

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

Engine::TaskId Engine::spawn(std::function<void()> body) {
  int k = (tl_.eng == this && (tl_.serial || tl_.sh != nullptr)) ? tl_.key : 0;
  return spawn_on(k, std::move(body));
}

Engine::TaskId Engine::spawn_on(int key_shard, std::function<void()> body) {
  SPBC_ASSERT_MSG(!(tl_.eng == this && tl_.parallel),
                  "spawn from a threaded window");
  SPBC_ASSERT(key_shard >= 0 && key_shard < key_shards());
  TaskId id = static_cast<TaskId>(tasks_.size());
  tasks_.emplace_back();
  Task& t = tasks_.back();
  t.key_shard = key_shard;
  t.fiber = std::make_unique<Fiber>(
      std::move(body), *shards_[static_cast<size_t>(exec_of(key_shard))]->pool);
  schedule_resume(id);
  return id;
}

void Engine::schedule_resume(TaskId id) {
  Task& task = tasks_[static_cast<size_t>(id)];
  if (task.scheduled) return;
  task.scheduled = true;
  post(task.key_shard, {{now()}, EventQueue::Kind::kResume, 0, id, {}});
}

bool Engine::cond_met(const Task& t) const {
  switch (t.cond) {
    case Cond::kNone:
      return true;
    case Cond::kDeadline:
      return now() >= t.deadline;
    case Cond::kFlag:
      return *static_cast<const bool*>(t.watch);
    case Cond::kChange:
      return *static_cast<const uint64_t*>(t.watch) != t.seen;
  }
  return true;
}

void Engine::resume_task(TaskId id) {
  Task* t = &tasks_[static_cast<size_t>(id)];
  t->scheduled = false;
  if (!t->fiber || t->fiber->finished()) return;
  // A parked fiber whose condition still fails would only re-check it and
  // park again: skip the two switches. The event itself ran, with its key.
  if (t->fiber->state() == Fiber::State::kParked &&
      !t->fiber->kill_requested() && !cond_met(*t))
    return;
  TaskId prev = tl_.running_task;
  tl_.running_task = id;
  t->fiber->resume();
  tl_.running_task = prev;
  // The fiber may have spawned tasks, which can move tasks_.
  t = &tasks_[static_cast<size_t>(id)];
  // Finished fibers release their stack back to the shard's pool right away
  // (this event runs on the owning shard, so the pool access is thread-safe).
  if (t->fiber->finished()) t->fiber.reset();
}

void Engine::wait(Time dt) {
  SPBC_ASSERT_MSG(tl_.eng == this && tl_.running_task != kInvalidTask,
                  "wait outside fiber");
  SPBC_ASSERT_MSG(dt >= 0.0, "negative wait " << dt);
  TaskId id = tl_.running_task;
  Time deadline = now() + dt;
  post(tl_.key, {{deadline}, EventQueue::Kind::kWake, 0, id, {}});
  // Spurious wakes happen (message deliveries wake their rank's fiber); the
  // deadline condition keeps them from switching in before it passed.
  tasks_[static_cast<size_t>(id)].deadline = deadline;
  while (now() < deadline) park_on(Cond::kDeadline);
}

void Engine::park_on(Cond cond) {
  SPBC_ASSERT_MSG(tl_.eng == this && tl_.running_task != kInvalidTask,
                  "park outside fiber");
  Task& t = tasks_[static_cast<size_t>(tl_.running_task)];
  t.cond = cond;
  t.fiber->yield();
}

void Engine::park() { park_on(Cond::kNone); }

void Engine::park_until(const bool& flag) {
  SPBC_ASSERT_MSG(tl_.eng == this && tl_.running_task != kInvalidTask,
                  "park outside fiber");
  tasks_[static_cast<size_t>(tl_.running_task)].watch = &flag;
  park_on(Cond::kFlag);
}

void Engine::park_until_changed(const uint64_t& counter) {
  SPBC_ASSERT_MSG(tl_.eng == this && tl_.running_task != kInvalidTask,
                  "park outside fiber");
  Task& t = tasks_[static_cast<size_t>(tl_.running_task)];
  t.watch = &counter;
  t.seen = counter;
  park_on(Cond::kChange);
}

void Engine::unpark(TaskId id) {
  SPBC_ASSERT(id >= 0 && static_cast<size_t>(id) < tasks_.size());
  Task& task = tasks_[static_cast<size_t>(id)];
  if (!task.fiber || task.fiber->finished()) return;
  if (in_shard_event())
    SPBC_ASSERT_MSG(task.key_shard == tl_.key,
                    "cross-shard unpark from shard context (route the event "
                    "to the task's shard or use a serial event): task "
                    << id << " '" << task.label << "' on shard "
                    << task.key_shard << ", context shard " << tl_.key);
  if (task.fiber->state() != Fiber::State::kParked &&
      task.fiber->state() != Fiber::State::kReady)
    return;
  schedule_resume(id);
}

void Engine::kill(TaskId id) {
  SPBC_ASSERT(id >= 0 && static_cast<size_t>(id) < tasks_.size());
  Task& task = tasks_[static_cast<size_t>(id)];
  if (!task.fiber || task.fiber->finished()) return;
  if (in_shard_event())
    SPBC_ASSERT_MSG(task.key_shard == tl_.key,
                    "cross-shard kill from shard context (failure injection "
                    "must run in a serial event)");
  task.fiber->kill();
  schedule_resume(id);  // wake it so the FiberKilled unwind runs promptly
}

void Engine::unwind_parked() {
  for (size_t i = 0; i < tasks_.size(); ++i) {
    Fiber* f = tasks_[i].fiber.get();
    if (f == nullptr || f->state() != Fiber::State::kParked) continue;
    f->kill();
    f->resume();  // FiberKilled is thrown at the park
    SPBC_ASSERT(f->finished());
    tasks_[i].fiber.reset();
  }
}

bool Engine::task_finished(TaskId id) const {
  SPBC_ASSERT(id >= 0 && static_cast<size_t>(id) < tasks_.size());
  const Task& task = tasks_[static_cast<size_t>(id)];
  return !task.fiber || task.fiber->finished();
}

Engine::TaskId Engine::current_task() const {
  SPBC_ASSERT_MSG(tl_.eng == this && tl_.running_task != kInvalidTask,
                  "current_task outside fiber");
  return tl_.running_task;
}

size_t Engine::live_task_count() const {
  size_t n = 0;
  for (const auto& t : tasks_)
    if (t.fiber && !t.fiber->finished()) ++n;
  return n;
}

void Engine::set_task_label(TaskId id, std::string label) {
  SPBC_ASSERT(id >= 0 && static_cast<size_t>(id) < tasks_.size());
  tasks_[static_cast<size_t>(id)].label = std::move(label);
}

// ---------------------------------------------------------------------------
// Run loops
// ---------------------------------------------------------------------------

void Engine::wake_task(TaskId id, const ExecShard& sh, bool parallel) {
  const Task& t = tasks_[static_cast<size_t>(id)];
  if (t.scheduled || !t.fiber || t.fiber->state() != Fiber::State::kParked) {
    unpark(id);
    return;
  }
  // unpark() would post a resume keyed (now, task shard, next seq). When no
  // queued event has an earlier key, that resume is the next event popped:
  // run it here, under the seq it would have taken. In a threaded window the
  // worker pops its own queue next; the merge loop pops the global minimum.
  const auto ks = static_cast<uint32_t>(t.key_shard);
  const EventKey k{sh.now, ks, key_seq_[ks]};
  bool next = sh.queue.empty() || k < sh.queue.next_key();
  if (next && !parallel) {
    for (const auto& other : shards_)
      if (!other->queue.empty() && !(k < other->queue.next_key())) {
        next = false;
        break;
      }
    if (next && !serial_q_.empty() && !(k < serial_q_.next_key())) next = false;
  }
  if (!next) {
    unpark(id);
    return;
  }
  ++key_seq_[ks];
  resume_task(id);
}

void Engine::exec_shard_one(ExecShard& sh, bool parallel) {
  EventQueue::Event ev = sh.queue.pop();
  SPBC_ASSERT(ev.key.t >= sh.now);
  sh.now = ev.key.t;
  if (!parallel) global_now_ = std::max(global_now_, ev.key.t);
  // A task event runs on its task's own key shard.
  const bool call = ev.kind == EventQueue::Kind::kCall;
  const int owner = call ? static_cast<int>(ev.owner)
                         : tasks_[static_cast<size_t>(ev.task)].key_shard;
  ThreadCtx prev = tl_;
  tl_ = ThreadCtx{this, &sh, owner, parallel, false, kInvalidTask};
  if (call)
    ev.fn();
  else if (ev.kind == EventQueue::Kind::kResume)
    resume_task(ev.task);
  else
    wake_task(ev.task, sh, parallel);
  tl_ = prev;
  ++sh.events;
}

void Engine::exec_serial_one() {
  EventQueue::Event ev = serial_q_.pop();
  // A serial event is a global barrier: every shard clock advances to its
  // time (it only executes when it is the globally smallest key, so no shard
  // holds an earlier event).
  global_now_ = std::max(global_now_, ev.key.t);
  for (auto& sh : shards_) sh->now = std::max(sh->now, ev.key.t);
  ThreadCtx prev = tl_;
  tl_ = ThreadCtx{this, nullptr, static_cast<int>(ev.owner), false, true,
                 kInvalidTask};
  ev.fn();  // serial events are closures (at_serial)
  tl_ = prev;
  ++serial_events_;
}

Time Engine::run_merge() {
  for (;;) {
    // N-way merge: pop the globally smallest (time, shard, seq) key — the
    // same order for any exec-shard count.
    bool have = false;
    EventKey bk{};
    int best = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      EventQueue& q = shards_[s]->queue;
      if (q.empty()) continue;
      const EventKey k = q.next_key();
      if (!have || k < bk) {
        have = true;
        bk = k;
        best = static_cast<int>(s);
      }
    }
    bool serial_best = false;
    if (!serial_q_.empty()) {
      const EventKey k = serial_q_.next_key();
      if (!have || k < bk) {
        have = true;
        bk = k;
        serial_best = true;
      }
    }
    if (!have) break;
    if (serial_best)
      exec_serial_one();
    else
      exec_shard_one(*shards_[static_cast<size_t>(best)], false);
  }
  deadlock_check();
  return global_now_;
}

void Engine::drain_mailboxes() {
  std::vector<EventQueue::Event> tmp;
  for (auto& shp : shards_) {
    {
      std::lock_guard<std::mutex> g(shp->mbox_mu);
      tmp.swap(shp->mbox);
    }
    for (EventQueue::Event& m : tmp) shp->queue.schedule(std::move(m));
    tmp.clear();
  }
  {
    std::lock_guard<std::mutex> g(serial_mbox_mu_);
    tmp.swap(serial_mbox_);
  }
  for (EventQueue::Event& m : tmp) serial_q_.schedule(std::move(m));
}

Time Engine::run_threaded() {
  const int nexec = exec_shards();
  const int nw = std::min(threads_, nexec);
  workers_exit_ = false;

  std::barrier<> start_b(nw + 1), end_b(nw + 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(nw));
  for (int w = 0; w < nw; ++w) {
    workers.emplace_back([this, w, nw, nexec, &start_b, &end_b] {
      for (;;) {
        start_b.arrive_and_wait();
        if (workers_exit_) break;
        const Time W = window_end_;
        for (int s = w; s < nexec; s += nw) {
          ExecShard& sh = *shards_[static_cast<size_t>(s)];
          while (!sh.queue.empty() && sh.queue.next_time() < W)
            exec_shard_one(sh, true);
        }
        end_b.arrive_and_wait();
      }
    });
  }

  for (;;) {
    drain_mailboxes();
    bool have = false;
    EventKey kmin{};
    int smin = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      EventQueue& q = shards_[s]->queue;
      if (q.empty()) continue;
      const EventKey k = q.next_key();
      if (!have || k < kmin) {
        have = true;
        kmin = k;
        smin = static_cast<int>(s);
      }
    }
    bool have_serial = !serial_q_.empty();
    if (have_serial && (!have || serial_q_.next_key() < kmin)) {
      exec_serial_one();
      continue;
    }
    if (!have) break;
    Time W = kmin.t + lookahead_;
    if (have_serial) W = std::min(W, serial_q_.next_time());
    if (!(W > kmin.t)) {
      // No parallel room (zero lookahead or a serial event at the same
      // time): fall back to one deterministic sequential step.
      exec_shard_one(*shards_[static_cast<size_t>(smin)], false);
      continue;
    }
    global_now_ = std::max(global_now_, kmin.t);
    window_end_ = W;
    ++windows_;
    start_b.arrive_and_wait();  // workers process their shards' t < W
    end_b.arrive_and_wait();
  }

  workers_exit_ = true;
  start_b.arrive_and_wait();
  for (auto& th : workers) th.join();
  // Parallel-window events advance only their shard's clock; fold them in so
  // the final time matches the merge loop's (it tracks every event).
  for (auto& sh : shards_) global_now_ = std::max(global_now_, sh->now);
  deadlock_check();
  return global_now_;
}

Time Engine::run() {
  if (threads_ > 1 && exec_shards() > 1) return run_threaded();
  return run_merge();
}

void Engine::deadlock_check() {
  size_t live = live_task_count();
  if (live == 0) return;
  deadlocked_ = true;
  if (!abort_on_deadlock_) return;
  std::fprintf(stderr,
               "Engine::run: DEADLOCK at t=%.9f — %zu task(s) parked "
               "with no pending events:\n",
               global_now_, live);
  for (size_t i = 0; i < tasks_.size(); ++i) {
    const Task& t = tasks_[i];
    if (t.fiber && !t.fiber->finished())
      std::fprintf(stderr, "  task %zu (%s)\n", i,
                   t.label.empty() ? "unnamed" : t.label.c_str());
  }
  SPBC_ASSERT_MSG(false, "simulation deadlock");
}

Engine::Stats Engine::stats() const {
  Stats s;
  for (const auto& sh : shards_) {
    s.events += sh->events;
    s.live_stacks += sh->pool->live();
    s.peak_live_stacks += sh->pool->peak_live();  // sum of per-shard peaks
    s.stacks_allocated += sh->pool->allocated();
  }
  s.serial_events = serial_events_;
  s.windows = windows_;
  return s;
}

size_t Engine::stack_resident_bytes() const {
  size_t bytes = 0;
  for (const auto& sh : shards_) bytes += sh->pool->resident_bytes();
  return bytes;
}

}  // namespace spbc::sim
