#pragma once
// IPM-style profile aggregation (Section 6.4 used the IPM profiling tool to
// explain recovery speedups via communication/computation ratios and the
// intra- vs inter-cluster communication split).

#include <cstdint>

#include "mpi/machine.hpp"

namespace spbc::trace {

struct MachineProfile {
  double comm_ratio = 0;            // mean fraction of time in MPI
  double compute_ratio = 0;         // mean fraction of time computing
  double inter_cluster_share = 0;   // inter-cluster bytes / total bytes
  uint64_t total_bytes = 0;
  uint64_t total_messages = 0;
  uint64_t bytes_logged = 0;
  double max_rank_logged_mb = 0;    // MB logged by the heaviest rank
  double avg_rank_logged_mb = 0;
};

/// Aggregates per-rank profiles after a run.
MachineProfile profile_machine(mpi::Machine& machine);

}  // namespace spbc::trace
