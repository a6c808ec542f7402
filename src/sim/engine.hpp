#pragma once
// The discrete-event engine: virtual clocks, event queues, and all rank
// fibers. By default it is the classic single-queue, single-threaded,
// fully deterministic engine. For 100k-rank runs it shards by cluster:
//
//   * Key shards are *logical* shard ids — one per cluster — stamped into
//     every event's (time, shard, seq) ordering key. They are a property of
//     the workload (the cluster map), never of the execution configuration.
//   * Exec shards are the physical event queues (each with its own virtual
//     clock and fiber-stack pool). Key shard k executes on queue
//     k % exec_shards. Because ordering keys never mention exec shards,
//     any exec width — and any worker-thread count — yields the same global
//     event order, so fixed-seed results are bit-identical by construction.
//
// Single-threaded sharded runs pop the globally smallest key across all
// queues (an N-way merge — exactly the single-queue order). The optional
// threaded executor runs windows of conservative PDES: the coordinator picks
// W = min(global_min.t + lookahead, next_serial.t) and workers execute their
// own shards' events with t < W in parallel. The lookahead invariant — an
// event executing in a window may only schedule onto *another* key shard at
// t >= now + lookahead — is asserted in every mode, so cheap single-threaded
// runs validate what threaded runs rely on.
//
// "Serial" events (at_serial) execute alone at a global barrier with every
// shard clock advanced to their time: failure injection and recovery
// orchestration touch many shards at once and run there.
//
// Ranks are spawned as fibers pinned to their shard; blocking operations park
// the calling fiber and register a wake condition. Finished fibers release
// their stacks back to the shard's pool immediately.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace spbc::sim {

class Engine {
 public:
  using TaskId = int;
  static constexpr TaskId kInvalidTask = -1;

  explicit Engine(size_t default_stack_size = 256 * 1024);
  ~Engine();

  // ---- shard plan ---------------------------------------------------------
  /// Installs the shard layout. Must be called before any task is spawned or
  /// event scheduled. key_shards is the number of logical shards (clusters);
  /// exec_shards the number of physical queues (<= key_shards; 0 = one per
  /// key shard). key_shards == 1 is the legacy single-queue engine, byte-
  /// identical to the pre-shard implementation.
  void set_shard_plan(int key_shards, int exec_shards = 0);
  int key_shards() const { return static_cast<int>(key_seq_.size()); }
  int exec_shards() const { return static_cast<int>(shards_.size()); }
  bool sharded() const { return key_shards() > 1; }

  /// Worker threads for run(); <= 1 (or an unsharded plan) keeps the
  /// single-threaded merge loop. run_until() is always single-threaded.
  void set_threads(int n) { threads_ = n; }
  int threads() const { return threads_; }

  /// Minimum virtual-time distance of any cross-key-shard schedule made from
  /// shard-event context (= the minimum cross-cluster network latency).
  void set_lookahead(Time la) { lookahead_ = la; }
  Time lookahead() const { return lookahead_; }

  /// Virtual time of the calling context: the owning shard's clock inside a
  /// shard event or fiber, the global clock otherwise.
  Time now() const;

  /// Schedules a bare callback (network delivery, protocol timers, ...) on
  /// the calling context's own key shard (shard 0 / serial outside a run).
  EventQueue::EventId at(Time t, std::function<void()> fn);
  EventQueue::EventId after(Time dt, std::function<void()> fn) {
    return at(now() + dt, std::move(fn));
  }
  /// Schedules onto an explicit key shard (cross-shard sends). From shard
  /// context, t must respect the lookahead when key_shard differs.
  EventQueue::EventId at_on(int key_shard, Time t, std::function<void()> fn);
  EventQueue::EventId after_on(int key_shard, Time dt,
                               std::function<void()> fn) {
    return at_on(key_shard, now() + dt, std::move(fn));
  }
  /// Schedules a serial event: executes alone at a global barrier, with all
  /// shard clocks advanced to t. For failure injection / recovery
  /// orchestration that touches many shards. In an unsharded plan this is
  /// an ordinary event (legacy byte-identical order).
  EventQueue::EventId at_serial(Time t, std::function<void()> fn);
  EventQueue::EventId after_serial(Time dt, std::function<void()> fn) {
    return at_serial(now() + dt, std::move(fn));
  }
  /// Runs `fn` in serial context: immediately when already serial (or in an
  /// unsharded plan, where every event is effectively serial), else as a
  /// serial event one lookahead from now — the earliest instant a shard
  /// event may legally reach the global barrier. The deferral is applied in
  /// every sharded mode (threaded or not) so trajectories stay independent
  /// of the execution configuration.
  void run_serial(std::function<void()> fn);
  void cancel(EventQueue::EventId id);

  /// Spawns a fiber that starts running at the current time on the calling
  /// context's shard (spawn) or an explicit key shard (spawn_on). Returns a
  /// task id; ids are never reused within one Engine. Not callable from
  /// threaded windows.
  TaskId spawn(std::function<void()> body);
  TaskId spawn_on(int key_shard, std::function<void()> body);

  /// Fiber-side: sleep for dt of virtual time.
  void wait(Time dt);

  /// Fiber-side: park until some other party calls unpark(). The caller must
  /// have arranged for the wake-up; parking with no possible waker deadlocks
  /// the simulation (detected: run() aborts with a diagnostic).
  void park();

  /// Scheduler/event-side: make a parked task runnable at the current time.
  /// Unparking a running or ready task is a no-op (the wake was already in
  /// flight); unparking a finished/killed task is ignored. From shard-event
  /// context the task must live on the calling context's key shard.
  void unpark(TaskId id);

  /// Kills a task: the fiber unwinds with FiberKilled at its next wake.
  /// Parked tasks are woken immediately so the unwind happens now. Same
  /// shard rule as unpark (failure injection runs in serial events).
  void kill(TaskId id);

  bool task_finished(TaskId id) const;

  /// Teardown (outside run()): kills every parked task and resumes it so
  /// its frames unwind and their destructors run, then frees its stack. A
  /// run that ends with tasks still parked (a deadlock, a bounded run)
  /// would otherwise leak whatever those frames own. Tasks that never
  /// started are left alone: they own nothing yet.
  void unwind_parked();

  /// The task id of the fiber currently executing (fiber-side only).
  TaskId current_task() const;

  /// Key shard the task was spawned on.
  int task_shard(TaskId id) const;

  /// Runs until the event queues are empty and all fibers are finished, or
  /// until stop() is called. Returns final virtual time.
  Time run();

  /// Runs until virtual time reaches `deadline` (events at exactly the
  /// deadline are executed). Always single-threaded.
  Time run_until(Time deadline);

  /// Stops the run loop (threaded: after the current window).
  void stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  /// When false, a deadlock (parked fibers, empty event queue) ends run()
  /// with deadlocked()==true instead of aborting. Tests for the paper's
  /// Figure 2 mismatch scenario rely on this.
  void set_abort_on_deadlock(bool v) { abort_on_deadlock_ = v; }
  bool deadlocked() const { return deadlocked_; }

  /// True when no fiber is runnable and no event is pending: if unfinished
  /// fibers remain parked at that point, the simulation deadlocked.
  size_t live_task_count() const;

  /// Diagnostic label for deadlock reports.
  void set_task_label(TaskId id, std::string label);

  /// True while executing a threaded parallel window on this engine.
  bool in_parallel_context() const;
  /// True while executing a serial (global-barrier) event.
  bool in_serial_context() const;

  struct Stats {
    uint64_t events = 0;         // shard events executed
    uint64_t serial_events = 0;  // global-barrier events executed
    uint64_t windows = 0;        // parallel windows run (threaded only)
    uint64_t seq_steps = 0;      // threaded-mode sequential fallback steps
    size_t live_stacks = 0;      // fiber stacks currently in use
    size_t peak_live_stacks = 0;
    size_t stacks_allocated = 0;  // distinct stacks ever allocated
  };
  Stats stats() const;

 private:
  struct Mail {
    bool cancel = false;
    EventQueue::EventId local_id = 0;  // reserved (insert) or target (cancel)
    EventKey key;
    uint32_t owner = 0;
    EventQueue::EventFn fn;
  };
  struct ExecShard {
    EventQueue queue;
    Time now = kTimeZero;
    std::unique_ptr<StackPool> pool;
    uint64_t events = 0;
    // Cross-shard inserts/cancels from threaded windows; drained by the
    // coordinator between windows.
    std::mutex mbox_mu;
    std::vector<Mail> mbox;
  };
  struct Task {
    std::unique_ptr<Fiber> fiber;
    std::string label;
    bool scheduled = false;  // a resume event is pending
    int key_shard = 0;
  };

  int exec_of(int key_shard) const {
    return key_shard % static_cast<int>(shards_.size());
  }
  bool in_shard_event() const;  // shard-event/fiber context on this engine

  EventQueue::EventId schedule_event(int target_key, Time t,
                                     std::function<void()> fn);
  EventQueue::EventId schedule_serial(Time t, std::function<void()> fn);
  void schedule_resume(TaskId id);
  void resume_task(TaskId id);
  void exec_shard_one(int s, bool parallel);
  void exec_serial_one();
  Time run_merge(Time deadline, bool bounded);
  Time run_threaded();
  void drain_mailboxes();
  void deadlock_check();

  // Engine-wide event ids encode (queue index + 1, local id); queue index
  // shards_.size() is the serial queue.
  static constexpr int kLocalIdBits = 44;
  EventQueue::EventId make_gid(size_t qidx, EventQueue::EventId local) const {
    SPBC_ASSERT(local < (1ull << kLocalIdBits));
    return ((static_cast<uint64_t>(qidx) + 1) << kLocalIdBits) | local;
  }

  std::vector<std::unique_ptr<ExecShard>> shards_;
  EventQueue serial_q_;
  std::mutex serial_mbox_mu_;
  std::vector<Mail> serial_mbox_;
  std::vector<uint64_t> key_seq_;  // per key shard: next ordering seq
  Time global_now_ = kTimeZero;
  Time window_end_ = kTimeZero;  // published W for the current window
  std::deque<Task> tasks_;
  size_t default_stack_size_;
  int threads_ = 1;
  Time lookahead_ = 0.0;
  std::atomic<bool> stop_requested_{false};
  bool workers_exit_ = false;
  bool abort_on_deadlock_ = true;
  bool deadlocked_ = false;
  uint64_t serial_events_ = 0;
  uint64_t windows_ = 0;
  uint64_t seq_steps_ = 0;
};

}  // namespace spbc::sim
