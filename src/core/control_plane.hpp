#pragma once
// Self-tuning reliability control plane for the staged checkpoint pipeline.
//
// SPBC's checkpoint interval and redundancy scheme are static configuration;
// a production runtime observes its failure process and adapts (FTI/MPC-style
// per-level interval tuning against a cost model, SCR-style rebuild of lost
// cache fragments before the next failure finds them). This module closes
// that loop over three mechanisms:
//
//  * Per-level interval controller. Sliding-window estimators of the
//    observed mean time between failures — three classes: any failure,
//    storage-destroying node losses, and correlated double losses (two node
//    losses within a short window, the class that defeats single parity) —
//    drive generalized Young/Daly optimal intervals per level of the
//    LOCAL -> redundancy -> PFS cost model:
//        T_level = sqrt(2 * C_level * MTBF_class)
//    where C_level is the level's incremental write cost for the observed
//    snapshot size. The LOCAL interval paces the checkpoint wave itself
//    (time-based trigger instead of the static every-N-iterations schedule);
//    the redundancy and PFS intervals become epoch strides, so cheap LOCAL
//    epochs fire often while PFS flushes stay rare (ckpt::LevelPlan).
//
//  * Background scrubbing cadence. The periodic audit wave itself lives in
//    ckpt::StagingArea (it walks residency and rides net::Network); the
//    control plane uses the same tick for its time-based policy checks.
//
//  * Scheme escalation. When the observed correlated-double-loss count
//    crosses a threshold, future epochs are routed through a pre-built
//    stronger scheme (XOR -> RS(k, m)); after a calm period with no double
//    loss the scheme de-escalates. Hysteresis lives here; the pluggable
//    scheme switch lives in StagingArea (epochs pin their encoder).
//
// Determinism discipline (see DESIGN.md §13): every estimator / escalation
// MUTATION happens in serial context (failure injections and scrub ticks
// both run at global barriers); interval and plan READS are computed on
// demand as pure functions of that serial-written state, so there is no
// cached value concurrent shard events could race on. The snapshot-size
// observation is an atomic max — order-independent across shards.

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>

#include "ckpt/staging.hpp"
#include "ckpt/store.hpp"
#include "sim/time.hpp"

namespace spbc::core {

/// Sliding-window estimator of a failure process's mean time between
/// events: the mean of the last `window` inter-event gaps, reporting the
/// prior until `min_samples` gaps accumulated. The window opens at t=0 (job
/// start), so the first event contributes its arrival time as a gap. A
/// step-change in the true rate is fully absorbed after `window` events —
/// the bounded re-convergence the tests pin.
class RateEstimator {
 public:
  RateEstimator() = default;
  RateEstimator(int window, int min_samples, double prior_mtbf)
      : window_(window < 1 ? 1 : window),
        min_samples_(min_samples < 1 ? 1 : min_samples),
        prior_(prior_mtbf) {}

  /// Serial context: record an event at time `now` (non-decreasing).
  void note_event(sim::Time now) {
    const double gap = now - last_;
    last_ = now;
    gaps_.push_back(gap);
    sum_ += gap;
    if (static_cast<int>(gaps_.size()) > window_) {
      sum_ -= gaps_.front();
      gaps_.pop_front();
    }
  }

  double mtbf() const {
    if (static_cast<int>(gaps_.size()) < min_samples_ || sum_ <= 0.0)
      return prior_;
    return sum_ / static_cast<double>(gaps_.size());
  }

  int samples() const { return static_cast<int>(gaps_.size()); }
  sim::Time last_event() const { return last_; }

 private:
  int window_ = 32;
  int min_samples_ = 2;
  double prior_ = 10.0;
  std::deque<double> gaps_;
  double sum_ = 0.0;
  sim::Time last_ = 0.0;
};

struct ControlPlaneConfig {
  /// Master switch: off = the static schedule (checkpoint_every, full-depth
  /// writes) exactly as before.
  bool enabled = false;

  // ---- failure-rate estimation ----
  double prior_mtbf = 10.0;          // any-failure prior (virtual seconds)
  double prior_storage_mtbf = 20.0;  // node-loss (storage-destroying) prior
  double prior_double_mtbf = 200.0;  // correlated double-loss prior
  /// Two node losses on distinct nodes within this window count as one
  /// correlated double-loss event.
  sim::Time correlation_window = 0.05;

  // ---- interval planner ----
  sim::Time min_interval = 1e-3;  // clamps on the LOCAL epoch interval
  sim::Time max_interval = 60.0;

  // ---- background scrubbing ----
  /// Period of the staging area's audit wave, which doubles as the control
  /// plane's time-based policy tick (0 = neither). Requires async staging.
  sim::Time scrub_period = 0;

  // ---- scheme escalation ----
  /// The stronger scheme new epochs switch to after correlated double
  /// losses (e.g. XOR -> RS(k, m)); unset = no escalation.
  std::optional<ckpt::RedundancyConfig> escalation;

  // ---- online repartitioning ----
  /// Cadence of the streaming repartitioner's drift check (0 = never): every
  /// period the protocol asks clustering::plan_node_move for a
  /// cut-reducing node move against the live traffic matrix and migrates it
  /// through the quiescence bridge (DESIGN.md §14).
  sim::Time repartition_period = 0;
};

struct ControlPlaneStats {
  uint64_t failures = 0;        // injected failure events observed
  uint64_t storage_losses = 0;  // events that destroyed node storage
  uint64_t double_losses = 0;   // correlated double-loss events
  uint64_t replans = 0;         // commit-time re-plan points
  uint64_t escalations = 0;
  uint64_t deescalations = 0;
  double observed_mtbf = 0;
  double observed_storage_mtbf = 0;
  double observed_double_mtbf = 0;
  sim::Time local_interval = 0;
  uint64_t redundancy_stride = 0;
  uint64_t pfs_stride = 0;
  bool escalated = false;
  uint64_t repartitions = 0;    // completed online repartition flips
  uint64_t ranks_migrated = 0;  // ranks moved across clusters by them
};

class ControlPlane {
 public:
  ControlPlane(const ControlPlaneConfig& cfg,
               const ckpt::StorageCostModel& model);

  /// Inter-failure gaps each estimator keeps.
  static constexpr int kRateWindow = 32;

  /// Wires the staging area's escalation switch. May be null in unit tests:
  /// the policy state machine still runs, only the switch is skipped.
  void attach(ckpt::StagingArea* staging) { staging_ = staging; }

  /// Containment domains (the protocol's cluster count, wired before the
  /// run). SPBC rolls back ONE cluster per failure, so the failure rate a
  /// Young/Daly interval must balance against is the rate at which a given
  /// domain loses work: class MTBF x domains, not the global machine MTBF —
  /// a machine of many small clusters checkpoints each of them less often,
  /// not more.
  void set_domains(int n) { domains_ = n < 1 ? 1 : n; }
  int domains() const { return domains_; }

  bool enabled() const { return cfg_.enabled; }
  const ControlPlaneConfig& config() const { return cfg_; }

  /// Serial context (the crash instant): feed the estimators and run the
  /// escalation policy. Exactly one call per injected failure event.
  /// `storage_lost` distinguishes node losses from process-only failures;
  /// `node` is the victim's node (correlated-pair bookkeeping).
  void note_failure(sim::Time now, bool storage_lost, int node);

  /// Serial context (scrub cadence): time-based policy checks that must not
  /// wait for the next failure — currently de-escalation on calm.
  void on_tick(sim::Time now);

  /// Serial context (migration flip): one online repartition completed,
  /// moving `moved` ranks across clusters.
  void note_repartition(int moved) {
    ++repartitions_;
    ranks_migrated_ += static_cast<uint64_t>(moved < 0 ? 0 : moved);
  }

  /// Any shard: observe a real snapshot size — the staged (post-reduction)
  /// bytes, after delta encoding and compression, plus the incompressible
  /// pad. Daly's C is the cost actually paid per checkpoint, so the interval
  /// math must see what the storage hierarchy ships, not the raw capture
  /// size. Two-phase for bit-identity
  /// across shard/thread layouts: the observation lands in a pending atomic
  /// max (order-independent), and only a serial-context event (a failure or
  /// a scrub tick) publishes it into the value the interval math reads — so
  /// concurrent shard events never see a mid-flight change.
  void note_snapshot_bytes(uint64_t bytes);

  /// Commit hook (the wave root's shard event): a re-plan point. Only a
  /// relaxed counter moves here — the plan itself is recomputed on demand
  /// from serial-written state, never cached where a reader could race.
  void on_commit() { replans_.fetch_add(1, std::memory_order_relaxed); }

  // ---- plan reads (pure functions of serial-written state) --------------
  /// Young/Daly interval between LOCAL epochs for the observed any-failure
  /// MTBF, clamped to [min_interval, max_interval].
  sim::Time local_interval() const;
  /// Every how many LOCAL epochs the plan keeps the redundancy hop / the
  /// PFS flush (>= 1; epoch strides derived from the per-level intervals).
  uint64_t redundancy_stride() const;
  uint64_t pfs_stride() const;
  ckpt::LevelPlan plan_for_epoch(uint64_t epoch) const;

  double observed_mtbf() const { return any_.mtbf(); }
  double observed_storage_mtbf() const { return storage_.mtbf(); }
  double observed_double_mtbf() const { return dbl_.mtbf(); }
  bool escalated() const { return escalated_; }

  ControlPlaneStats stats() const;

 private:
  uint64_t snapshot_bytes() const;
  void maybe_deescalate(sim::Time now);
  void publish_snapshot_bytes();

  ControlPlaneConfig cfg_;
  ckpt::StorageCostModel model_;
  ckpt::StagingArea* staging_ = nullptr;
  int domains_ = 1;

  // Serial-written estimator/policy state.
  RateEstimator any_, storage_, dbl_;
  sim::Time last_storage_loss_ = -1.0;
  int last_storage_node_ = -1;
  sim::Time last_double_ = -1.0;
  bool escalated_ = false;
  uint64_t failures_ = 0;
  uint64_t storage_losses_ = 0;
  uint64_t double_losses_ = 0;
  uint64_t escalations_ = 0;
  uint64_t deescalations_ = 0;
  uint64_t repartitions_ = 0;
  uint64_t ranks_migrated_ = 0;

  /// Pending (any-shard atomic max) and published (serial-written, read by
  /// any shard after the barrier) snapshot-size observations.
  std::atomic<uint64_t> pending_bytes_{0};
  uint64_t published_bytes_ = 0;
  std::atomic<uint64_t> replans_{0};
};

}  // namespace spbc::core
