#include "trace/profile.hpp"

#include <algorithm>

namespace spbc::trace {

MachineProfile profile_machine(mpi::Machine& machine) {
  MachineProfile mp;
  int n = machine.nranks();
  double comm_sum = 0, compute_sum = 0;
  uint64_t max_logged = 0, sum_logged = 0;
  for (int r = 0; r < n; ++r) {
    const auto& p = machine.rank(r).profile();
    double total = p.time_compute + p.time_mpi;
    if (total > 0) {
      comm_sum += p.time_mpi / total;
      compute_sum += p.time_compute / total;
    }
    mp.total_bytes += p.bytes_sent_intra_cluster + p.bytes_sent_inter_cluster;
    mp.total_messages += p.sends;
    mp.bytes_logged += p.bytes_logged;
    max_logged = std::max(max_logged, p.bytes_logged);
    sum_logged += p.bytes_logged;
  }
  mp.comm_ratio = comm_sum / n;
  mp.compute_ratio = compute_sum / n;
  uint64_t inter = 0;
  for (int r = 0; r < n; ++r)
    inter += machine.rank(r).profile().bytes_sent_inter_cluster;
  mp.inter_cluster_share =
      mp.total_bytes ? static_cast<double>(inter) / static_cast<double>(mp.total_bytes)
                     : 0.0;
  mp.max_rank_logged_mb = static_cast<double>(max_logged) / 1.0e6;
  mp.avg_rank_logged_mb = static_cast<double>(sum_logged) / 1.0e6 / n;
  return mp;
}

}  // namespace spbc::trace
