#pragma once
// The discrete-event engine: virtual clocks, event queues, and all rank
// fibers, keyed by cluster. A machine with no cluster map, or with one
// cluster, is the one-key-shard case of the same engine:
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
// Single-threaded runs pop the globally smallest key across all queues (an
// N-way merge, the same order for every exec width). The optional
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

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/time.hpp"

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
  /// key shard). A new engine has one key shard on one queue.
  void set_shard_plan(int key_shards, int exec_shards = 0);
  int key_shards() const { return static_cast<int>(key_seq_.size()); }
  int exec_shards() const { return static_cast<int>(shards_.size()); }

  /// Worker threads for run(); <= 1 (or a single exec shard) keeps the
  /// single-threaded merge loop.
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
  void at(Time t, std::function<void()> fn);
  void after(Time dt, std::function<void()> fn) {
    at(now() + dt, std::move(fn));
  }
  /// Schedules onto an explicit key shard (cross-shard sends). From shard
  /// context, t must respect the lookahead when key_shard differs.
  void at_on(int key_shard, Time t, std::function<void()> fn);
  void after_on(int key_shard, Time dt, std::function<void()> fn) {
    at_on(key_shard, now() + dt, std::move(fn));
  }
  /// Schedules a serial event: executes alone at a global barrier, with all
  /// shard clocks advanced to t. For failure injection / recovery
  /// orchestration that touches many shards. From shard context, t must
  /// respect the lookahead.
  void at_serial(Time t, std::function<void()> fn);
  void after_serial(Time dt, std::function<void()> fn) {
    at_serial(now() + dt, std::move(fn));
  }
  /// Runs `fn` in serial context: immediately when already serial (or
  /// outside a run), else as a serial event one lookahead from now — the
  /// earliest instant a shard event may legally reach the global barrier.
  /// The deferral is applied for every layout (threaded or not) so
  /// trajectories stay independent of the execution configuration.
  void run_serial(std::function<void()> fn);

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
  /// park() for a fiber that waits for `flag` to become true, or for
  /// `counter` to move from its value at the park. A resume that finds the
  /// condition still unmet returns without switching to the fiber, which
  /// would only re-check and park again; a kill always resumes. The
  /// referenced word must outlive the park and be written only from the
  /// task's own key shard.
  void park_until(const bool& flag);
  void park_until_changed(const uint64_t& counter);

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
  /// run that ends with tasks still parked (a deadlock) would otherwise
  /// leak whatever those frames own. Tasks that never started are left
  /// alone: they own nothing yet.
  void unwind_parked();

  /// The task id of the fiber currently executing (fiber-side only).
  TaskId current_task() const;

  /// Runs until every event queue and mailbox is empty. Returns final
  /// virtual time; fibers still parked at that point deadlocked.
  Time run();

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

  struct Stats {
    uint64_t events = 0;         // shard events executed (fused resumes
                                 // run inside their wake, uncounted)
    uint64_t serial_events = 0;  // global-barrier events executed
    uint64_t windows = 0;        // parallel windows run (threaded only)
    size_t live_stacks = 0;      // fiber stacks currently in use
    size_t peak_live_stacks = 0;
    size_t stacks_allocated = 0;  // distinct stacks ever allocated
  };
  Stats stats() const;
  /// Resident bytes of every shard's fiber stacks, live and pooled: the
  /// pages fibers have touched (StackPool::resident_bytes). A mincore scan
  /// of the stack slabs, so it stays out of stats().
  size_t stack_resident_bytes() const;

 private:
  struct ExecShard {
    EventQueue queue;
    Time now = kTimeZero;
    std::unique_ptr<StackPool> pool;
    uint64_t events = 0;
    // Cross-shard inserts from threaded windows; drained by the
    // coordinator between windows.
    std::mutex mbox_mu;
    std::vector<EventQueue::Event> mbox;
  };
  /// What a parked fiber waits for (see park_until). kNone: any resume
  /// runs it.
  enum class Cond : uint8_t { kNone, kDeadline, kFlag, kChange };
  struct Task {
    std::unique_ptr<Fiber> fiber;
    bool scheduled = false;  // a resume event is pending
    Cond cond = Cond::kNone;
    int key_shard = 0;
    const void* watch = nullptr;  // kFlag: const bool*; kChange: uint64_t*
    uint64_t seen = 0;            // kChange: *watch at the park
    Time deadline = kTimeZero;    // kDeadline
    std::string label;
  };
  struct ThreadCtx;
  static thread_local ThreadCtx tl_;

  int exec_of(int key_shard) const {
    return key_shard % static_cast<int>(shards_.size());
  }
  bool in_shard_event() const;  // shard-event/fiber context on this engine
  /// Stamps the next (t, origin, seq) key of the calling context. A non-null
  /// `what` asserts the lookahead from the calling shard's clock.
  EventKey stamp_key(Time t, const char* what);

  /// Stamps ev's key at time ev.key.t and queues it for `key_shard`.
  void post(int key_shard, EventQueue::Event&& ev);
  void schedule_resume(TaskId id);
  void resume_task(TaskId id);
  void park_on(Cond cond);
  bool cond_met(const Task& t) const;
  /// A kWake event: unpark, with the resume fused in when it would pop next.
  void wake_task(TaskId id, const ExecShard& sh, bool parallel);
  void exec_shard_one(ExecShard& sh, bool parallel);
  void exec_serial_one();
  Time run_merge();
  Time run_threaded();
  void drain_mailboxes();
  void deadlock_check();

  std::vector<std::unique_ptr<ExecShard>> shards_;
  EventQueue serial_q_;
  std::mutex serial_mbox_mu_;
  std::vector<EventQueue::Event> serial_mbox_;
  std::vector<uint64_t> key_seq_;  // per key shard: next ordering seq
  Time global_now_ = kTimeZero;
  Time window_end_ = kTimeZero;  // published W for the current window
  std::vector<Task> tasks_;  // indexed by TaskId; may move on spawn
  size_t default_stack_size_;
  int threads_ = 1;
  Time lookahead_ = 0.0;
  bool workers_exit_ = false;
  bool abort_on_deadlock_ = true;
  bool deadlocked_ = false;
  uint64_t serial_events_ = 0;
  uint64_t windows_ = 0;
};

}  // namespace spbc::sim
