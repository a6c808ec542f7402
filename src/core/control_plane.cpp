#include "core/control_plane.hpp"

#include <algorithm>
#include <cmath>

namespace spbc::core {

namespace {
// Gaps before an observed rate replaces its prior.
constexpr int kMinSamples = 2;
// Clamp on the redundancy and PFS epoch strides.
constexpr uint64_t kMaxLevelStride = 64;
// Snapshot-size seed for the Daly cost terms until a real write is seen.
constexpr uint64_t kSnapshotBytesHint = 1 << 20;
// Correlated double losses before the scheme escalates.
constexpr uint64_t kEscalateAfter = 2;
// No double loss for this long de-escalates.
constexpr sim::Time kCalmPeriod = 5.0;
}  // namespace

ControlPlane::ControlPlane(const ControlPlaneConfig& cfg,
                           const ckpt::StorageCostModel& model)
    : cfg_(cfg),
      model_(model),
      any_(kRateWindow, kMinSamples, cfg.prior_mtbf),
      storage_(kRateWindow, kMinSamples, cfg.prior_storage_mtbf),
      dbl_(kRateWindow, kMinSamples, cfg.prior_double_mtbf) {}

void ControlPlane::note_failure(sim::Time now, bool storage_lost, int node) {
  if (!cfg_.enabled) return;
  publish_snapshot_bytes();
  maybe_deescalate(now);
  ++failures_;
  any_.note_event(now);
  if (!storage_lost) return;
  ++storage_losses_;
  storage_.note_event(now);
  if (last_storage_loss_ >= 0 && node != last_storage_node_ &&
      now - last_storage_loss_ <= cfg_.correlation_window) {
    // Two distinct nodes within the correlation window: the event class
    // single parity cannot cover. A third loss opens a fresh pair rather
    // than chaining (one platform event, one count).
    ++double_losses_;
    dbl_.note_event(now);
    last_double_ = now;
    last_storage_loss_ = -1.0;
    last_storage_node_ = -1;
    if (cfg_.escalation && !escalated_ &&
        double_losses_ >= kEscalateAfter) {
      escalated_ = true;
      ++escalations_;
      if (staging_ != nullptr) staging_->set_scheme_escalated(true);
    }
  } else {
    last_storage_loss_ = now;
    last_storage_node_ = node;
  }
}

void ControlPlane::on_tick(sim::Time now) {
  if (!cfg_.enabled) return;
  publish_snapshot_bytes();
  maybe_deescalate(now);
}

void ControlPlane::maybe_deescalate(sim::Time now) {
  if (!cfg_.escalation || !escalated_) return;
  if (last_double_ >= 0 && now - last_double_ >= kCalmPeriod) {
    escalated_ = false;
    ++deescalations_;
    if (staging_ != nullptr) staging_->set_scheme_escalated(false);
  }
}

void ControlPlane::note_snapshot_bytes(uint64_t bytes) {
  uint64_t cur = pending_bytes_.load(std::memory_order_relaxed);
  while (bytes > cur && !pending_bytes_.compare_exchange_weak(
                            cur, bytes, std::memory_order_relaxed)) {
  }
}

void ControlPlane::publish_snapshot_bytes() {
  const uint64_t p = pending_bytes_.load(std::memory_order_relaxed);
  if (p > published_bytes_) published_bytes_ = p;
}

uint64_t ControlPlane::snapshot_bytes() const {
  return published_bytes_ > 0 ? published_bytes_ : kSnapshotBytesHint;
}

sim::Time ControlPlane::local_interval() const {
  const double c =
      model_.write_time(ckpt::StorageLevel::kLocal, snapshot_bytes());
  // The MTBF that matters to a Young/Daly balance under clustered
  // containment is per domain: a failure rolls back one cluster, so a given
  // cluster loses work `domains_` times less often than the machine fails.
  const double m = any_.mtbf() * domains_;
  const double t = std::sqrt(2.0 * std::max(c, 1e-9) * m);
  return std::clamp<sim::Time>(t, cfg_.min_interval, cfg_.max_interval);
}

uint64_t ControlPlane::redundancy_stride() const {
  const uint64_t bytes = snapshot_bytes();
  // Only the async chain honours a LevelPlan, and there the redundancy hop
  // is background traffic: its latency overlaps with compute, so only the
  // bandwidth it occupies is a real cost against the rollback depth a
  // skipped hop buys.
  const double c = static_cast<double>(bytes) / model_.partner_bw;
  const double t =
      std::sqrt(2.0 * std::max(c, 1e-9) * storage_.mtbf() * domains_);
  const double stride = std::round(t / local_interval());
  return std::clamp<uint64_t>(
      stride < 1.0 ? 1 : static_cast<uint64_t>(stride), 1,
      kMaxLevelStride);
}

uint64_t ControlPlane::pfs_stride() const {
  const uint64_t bytes = snapshot_bytes();
  const double c = static_cast<double>(bytes) / model_.pfs_bw;
  const double t = std::sqrt(2.0 * std::max(c, 1e-9) * dbl_.mtbf() * domains_);
  const double stride = std::round(t / local_interval());
  return std::clamp<uint64_t>(
      stride < 1.0 ? 1 : static_cast<uint64_t>(stride), 1,
      kMaxLevelStride);
}

ckpt::LevelPlan ControlPlane::plan_for_epoch(uint64_t epoch) const {
  ckpt::LevelPlan plan;  // full depth when the controller is off
  if (!cfg_.enabled) return plan;
  plan.redundancy = epoch % redundancy_stride() == 0;
  plan.pfs = epoch % pfs_stride() == 0;
  return plan;
}

ControlPlaneStats ControlPlane::stats() const {
  ControlPlaneStats st;
  st.failures = failures_;
  st.storage_losses = storage_losses_;
  st.double_losses = double_losses_;
  st.replans = replans_.load(std::memory_order_relaxed);
  st.escalations = escalations_;
  st.deescalations = deescalations_;
  st.observed_mtbf = any_.mtbf();
  st.observed_storage_mtbf = storage_.mtbf();
  st.observed_double_mtbf = dbl_.mtbf();
  st.local_interval = cfg_.enabled ? local_interval() : 0.0;
  st.redundancy_stride = cfg_.enabled ? redundancy_stride() : 0;
  st.pfs_stride = cfg_.enabled ? pfs_stride() : 0;
  st.escalated = escalated_;
  st.repartitions = repartitions_;
  st.ranks_migrated = ranks_migrated_;
  return st;
}

}  // namespace spbc::core
