#pragma once
// Workload framework.
//
// Each workload is a communication skeleton of one of the paper's evaluation
// applications (Section 6.1): same decomposition, same per-iteration
// communication pattern (sizes, neighbor sets, ANY_SOURCE usage), and a
// compute model calibrated so the communication/computation ratio and the
// per-process logging rates land in the regime the paper reports. In
// `validate` mode the apps carry real payloads through the exchanges and
// fold them into a checksum, so end-to-end recovery tests can assert that a
// failed-and-recovered run produces bit-identical results.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mpi/rank.hpp"

namespace spbc::apps {

struct AppConfig {
  int iters = 20;
  /// Multiplies all message sizes (1.0 = calibrated defaults).
  double msg_scale = 1.0;
  /// Multiplies all compute times (1.0 = calibrated defaults).
  double compute_scale = 1.0;
  /// Real payloads + checksum folding (tests); false = synthetic payloads
  /// (benches: no allocation, same protocol path).
  bool validate = false;
  /// Where final per-rank checksums are deposited (validate mode); owned by
  /// the caller, written under a lock.
  std::map<int, uint64_t>* checksums = nullptr;

  /// Bursty / adversarial traffic phases (hostile workload matrix; DESIGN.md
  /// §16): every burst_period iterations the app spends burst_duty of them
  /// in a burst, multiplying its message sizes by burst_factor (applied via
  /// burst_msg_scale). The schedule is a pure function of the iteration
  /// index, so a fixed burst config is fully deterministic — recovery
  /// re-executes the same burst and checksums stay identical. factor <= 1
  /// or period == 0 disables the shape (byte-identical messages).
  double burst_factor = 1.0;
  int burst_period = 0;
  int burst_duty = 1;  // iterations of each period spent bursting

  /// Effective message-size multiplier at iteration `iter`.
  double burst_msg_scale(int iter) const {
    if (burst_factor <= 1.0 || burst_period <= 0) return msg_scale;
    return (iter % burst_period) < burst_duty ? msg_scale * burst_factor
                                              : msg_scale;
  }
};

using AppMain = std::function<void(mpi::Rank&, const AppConfig&)>;

struct AppInfo {
  std::string name;
  AppMain main;
  bool uses_any_source = false;  // needs the pattern API (Section 5.1)
  std::string description;
};

/// All registered workloads (the paper's six + the NAS skeletons).
const std::vector<AppInfo>& registry();

/// Lookup by name; aborts with the list of known names when absent.
const AppInfo& find_app(const std::string& name);

// ---- the paper's applications (Section 6.1) -----------------------------
void minife_main(mpi::Rank& rank, const AppConfig& cfg);
void minighost_main(mpi::Rank& rank, const AppConfig& cfg);
void amg_main(mpi::Rank& rank, const AppConfig& cfg);
void gtc_main(mpi::Rank& rank, const AppConfig& cfg);
void milc_main(mpi::Rank& rank, const AppConfig& cfg);
void cm1_main(mpi::Rank& rank, const AppConfig& cfg);

// ---- facade ports (living integration docs; src/apps/facade_ports.cpp) --
// The same skeletons driven through the four-call C-style facade
// (core/facade.hpp) instead of set_state_handlers + maybe_checkpoint.
void minife_facade_main(mpi::Rank& rank, const AppConfig& cfg);
void nas_bt_facade_main(mpi::Rank& rank, const AppConfig& cfg);

// ---- NAS skeletons for the HydEE comparison (Section 6.5) ---------------
void nas_bt_main(mpi::Rank& rank, const AppConfig& cfg);
void nas_lu_main(mpi::Rank& rank, const AppConfig& cfg);
void nas_mg_main(mpi::Rank& rank, const AppConfig& cfg);
void nas_sp_main(mpi::Rank& rank, const AppConfig& cfg);

// ---- shared helpers ------------------------------------------------------

/// Deterministic content hash for synthetic payloads: a pure function of the
/// identifying tuple so every valid execution sends the same sequence
/// (channel-determinism by construction).
uint64_t synthetic_hash(uint64_t a, uint64_t b, uint64_t c, uint64_t d);

/// Builds a payload: real bytes derived from `fill` in validate mode,
/// synthetic descriptor otherwise.
mpi::Payload make_payload(const AppConfig& cfg, uint64_t bytes, uint64_t hash,
                          const std::vector<double>* fill = nullptr);

/// Folds a reception into a running checksum (works for both payload modes).
void fold_checksum(uint64_t& acc, const mpi::RecvResult& rr);

/// Order-insensitive fold, for receptions whose service order is not fixed
/// by the algorithm (e.g. queries served from an ANY_SOURCE probe loop).
/// Channel-determinism fixes the *set* of such messages but not the order a
/// process handles them in, so a valid-execution checksum must commute.
void fold_checksum_commutative(uint64_t& acc, const mpi::RecvResult& rr);

/// Standard app state kept across checkpoints.
struct BaseState {
  int iter = 0;
  uint64_t checksum = 0;

  void serialize(util::ByteWriter& w) const {
    w.put<int>(iter);
    w.put<uint64_t>(checksum);
  }
  void restore(util::ByteReader& r) {
    iter = r.get<int>();
    checksum = r.get<uint64_t>();
  }
};

/// Publishes the final checksum (validate mode).
void publish_checksum(mpi::Rank& rank, const AppConfig& cfg, uint64_t checksum);

}  // namespace spbc::apps
