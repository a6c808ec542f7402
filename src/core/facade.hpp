#pragma once
// Drop-in application facade over the SPBC protocol (DESIGN.md §16).
//
// The adoption surface real applications write against, modeled on SCR's
// SCR_Need_checkpoint / SCR_Start_checkpoint / SCR_Route_file /
// SCR_Complete_checkpoint integration recipe: four C-style calls wrap the
// whole checkpoint lifecycle, so a code adopts SPBC by bracketing the
// state-dump block it already has — no pattern annotations, no knowledge of
// epochs, waves, staging levels, or redundancy schemes.
//
//   // once, at startup (also answers "did I restart from a checkpoint?")
//   int have = 0;
//   spbc_have_restart(rank, &have);
//   if (have) spbc_restart_read(rank, "iter", &iter, &len);
//
//   // every iteration boundary
//   int need = 0;
//   spbc_need_checkpoint(rank, &need);   // §13 control plane answers this
//   if (need) {
//     spbc_start(rank);
//     spbc_route(rank, "iter", &iter, sizeof iter, path, sizeof path);
//     spbc_complete(rank, /*valid=*/1);  // cuts the epoch, joins the wave
//   }
//
// Semantics:
//  * spbc_need_checkpoint asks the protocol's trigger — the control plane's
//    observed-MTBF Young/Daly time boundary when enabled, the static
//    every-N schedule otherwise, or a cluster peer's wave marker running
//    ahead — without cutting. The call counts as a checkpoint opportunity,
//    so facade apps pace the periodic schedule exactly like pattern-API
//    apps calling maybe_checkpoint().
//  * spbc_start opens a session for the NEXT epoch. Routed writes stage
//    into it; nothing is durable yet.
//  * spbc_route registers one named region's bytes with the open session
//    and reports where the capture will land: the rank's node-LOCAL store
//    (`local://node<N>/rank<R>/epoch<E>/<name>`), resolved against the
//    CURRENT physical binding — after a spare-node hot-swap the same call
//    routes to the spare. The staging chain then promotes the capture
//    LOCAL -> redundancy -> PFS in the background, exactly as for
//    pattern-API snapshots.
//  * spbc_complete(valid=1) commits the session's regions into the rank's
//    snapshot image and cuts the epoch through the coordinated wave
//    (checkpoint_now — markers make cluster peers join). valid=0 discards
//    the session (the app detected its own dump was torn).
//  * On rollback an open session aborts; the regions recovered through
//    spbc_have_restart/spbc_restart_read are exactly the last COMMITTED
//    session's — checksum-identical to what spbc_route was handed.
//
// Misuse is rejected, never asserted: route/complete outside a session,
// double start, unknown regions and short buffers return error codes
// (spbc_error_string for messages). On a machine not running the SPBC
// protocol (native runs) the app runs unchanged: every call but
// spbc_restart_read succeeds as a no-op — no checkpoint needed, no restart
// state, no session — and spbc_restart_read, reading state that was
// reported absent, returns SPBC_ERR_NO_PROTOCOL. The facade is purely
// local — it adds no communication and no cost beyond the snapshot the app
// asked for.

#include <cstdint>

#include "mpi/rank.hpp"

namespace spbc::core {

enum FacadeStatus : int {
  SPBC_SUCCESS = 0,
  SPBC_ERR_NO_PROTOCOL = -1,  // restart read on a machine without SPBC
  SPBC_ERR_IN_SESSION = -2,   // spbc_start while a session is already open
  SPBC_ERR_NO_SESSION = -3,   // route/complete outside spbc_start..complete
  SPBC_ERR_BAD_ARG = -4,      // null name/flag/data with nonzero size
  SPBC_ERR_UNKNOWN_REGION = -5,  // restart read of a region never committed
  SPBC_ERR_TRUNCATED = -6,       // caller buffer smaller than the region
};

/// Human-readable message for a FacadeStatus code (static storage).
const char* spbc_error_string(int code);

/// Should the app checkpoint now? Writes 1/0 into *flag. Counts as a
/// checkpoint opportunity (the periodic schedule's call index advances).
int spbc_need_checkpoint(mpi::Rank& rank, int* flag);

/// Opens a checkpoint session for the next epoch.
int spbc_start(mpi::Rank& rank);

/// Registers `bytes` of region `name` with the open session and, when
/// `routed_path` is non-null, writes the LOCAL-store path the capture lands
/// at (truncated to `path_len`, always NUL-terminated when path_len > 0).
int spbc_route(mpi::Rank& rank, const char* name, const void* data,
               uint64_t bytes, char* routed_path, uint64_t path_len);

/// Ends the session: valid != 0 commits the routed regions and cuts the
/// epoch through the coordinated wave; valid == 0 discards them.
int spbc_complete(mpi::Rank& rank, int valid);

/// Did this incarnation restart from a committed checkpoint with facade
/// regions to read? Installs the facade's state handlers (idempotent) and
/// loads the restored regions on the first call of a restarted incarnation.
int spbc_have_restart(mpi::Rank& rank, int* flag);

/// Copies region `name` of the restored checkpoint into `buf`. On input
/// *bytes is the buffer capacity; on success it is the region's size. A
/// too-small buffer returns SPBC_ERR_TRUNCATED with *bytes set to the
/// required size and nothing copied.
int spbc_restart_read(mpi::Rank& rank, const char* name, void* buf,
                      uint64_t* bytes);

}  // namespace spbc::core
