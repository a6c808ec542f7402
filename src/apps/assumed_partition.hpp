#pragma once
// The Figure 4 communication pattern: BoomerAMG's assumed-partition
// data-dependent exchange (Baker, Falgout, Yang [2]).
//
// Each process knows whom it must contact from local data, but knows neither
// who will contact it nor how many contacts to expect — so it probes with
// MPI_ANY_SOURCE on a dedicated tag and answers each query. This is the
// channel-deterministic-but-not-send-deterministic pattern that motivates
// SPBC's matching-by-id, and the pattern the API of Section 5.1 wraps in
// BEGIN_ITERATION / END_ITERATION.
//
// The global-termination algorithm (elided in the paper's listing) is
// replaced here by the expected-contact count, computable because contact
// sets are pure functions of (rank, n, instance) and precomputed once per
// instance in a shared ContactTable; the closing barrier builds the
// always-happens-before relation between successive iterations that the
// pattern API requires.

#include <cstdint>
#include <vector>

#include "apps/app.hpp"
#include "mpi/comm.hpp"
#include "mpi/rank.hpp"

namespace spbc::apps {

/// Whom each rank queries in one instance of the pattern, and how many query it.
struct ContactTable {
  std::vector<std::vector<int>> contacts;  // [r]: the ranks r queries
  std::vector<int> expected;               // [r]: in-degree (queries r serves)
};

/// Face neighbors on the bounded 3D grid plus hash-derived contacts: 2 * level
/// for an AMG level, two (own salt each) for the MiniFE / facade setups.
enum class ContactSet { kAmgLevel, kMinifeSetup, kFacadeSetup };

/// The table of `set` at n ranks, built on first use and shared process-wide
/// (thread-safe: rank fibers on several engine threads ask for it).
const ContactTable& contact_table(ContactSet set, int n, int level = 0);

struct ApExchangeSpec {
  const ContactTable* contacts = nullptr;  // sized for the exchange's comm
  int tag_query = 0;
  int tag_reply = 1;
  uint64_t query_bytes = 1024;
  uint64_t reply_bytes = 1024;
  uint64_t hash_key = 0;  // folded into payload hashes (e.g. level/iter)
  bool close_with_barrier = true;
};

/// Runs one instance of the pattern on `comm`. The caller is responsible for
/// wrapping it in BEGIN_ITERATION/END_ITERATION when used under SPBC.
/// Returns the number of queries served; folds traffic into `checksum`.
int assumed_partition_exchange(mpi::Rank& rank, const mpi::Comm& comm,
                               const AppConfig& cfg, const ApExchangeSpec& spec,
                               uint64_t& checksum);

}  // namespace spbc::apps
