#include "core/facade.hpp"

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/spbc.hpp"
#include "mpi/machine.hpp"
#include "util/serialize.hpp"

namespace spbc::core {

namespace {

/// The facade only works against the SPBC protocol family (HydEE derives
/// from it, so HydEE runs get the facade for free).
SpbcProtocol* proto_of(mpi::Rank& rank) {
  return dynamic_cast<SpbcProtocol*>(&rank.machine().protocol());
}

/// Installs the facade's app-state handlers on the rank (once per rank —
/// handlers survive respawn). The committed region map IS the facade app's
/// checkpointed state: the save side embeds it into the snapshot's app
/// section, the load side rebuilds it on restore. Byte-exact round trip, so
/// recovery through the facade is checksum-identical to what spbc_route was
/// handed.
void ensure_handlers(mpi::Rank& rank, SpbcProtocol* p) {
  if (rank.has_state_handlers()) return;
  const int r = rank.rank();
  rank.set_state_handlers(
      [p, r](util::ByteWriter& w) {
        const auto& regions = p->facade_state(r).regions;
        w.put<uint64_t>(regions.size());
        for (const auto& [name, bytes] : regions) {
          w.put_string(name);
          w.put_bytes(bytes.data(), bytes.size());
        }
      },
      [p, r](util::ByteReader& rd) {
        auto& regions = p->facade_state(r).regions;
        regions.clear();
        const uint64_t n = rd.get<uint64_t>();
        for (uint64_t i = 0; i < n; ++i) {
          std::string name = rd.get_string();
          regions[std::move(name)] = rd.get_bytes();
        }
      });
}

}  // namespace

const char* spbc_error_string(int code) {
  switch (code) {
    case SPBC_SUCCESS:
      return "success";
    case SPBC_ERR_NO_PROTOCOL:
      return "machine is not running the SPBC protocol";
    case SPBC_ERR_IN_SESSION:
      return "a checkpoint session is already open";
    case SPBC_ERR_NO_SESSION:
      return "no checkpoint session is open";
    case SPBC_ERR_BAD_ARG:
      return "null or invalid argument";
    case SPBC_ERR_UNKNOWN_REGION:
      return "no such region in the restored checkpoint";
    case SPBC_ERR_TRUNCATED:
      return "buffer too small for the region";
    default:
      return "unknown error";
  }
}

// With no SPBC protocol attached (a native run, e.g. the tracing pass of
// tool clustering), an adopted app must run unchanged: need/start/route/
// complete/have_restart succeed as no-ops meaning "no checkpoint needed, no
// restart state". Argument checks still come first.

int spbc_need_checkpoint(mpi::Rank& rank, int* flag) {
  if (flag == nullptr) return SPBC_ERR_BAD_ARG;
  *flag = 0;
  SpbcProtocol* p = proto_of(rank);
  if (p == nullptr) return SPBC_SUCCESS;
  ensure_handlers(rank, p);
  *flag = p->need_checkpoint(rank) ? 1 : 0;
  return SPBC_SUCCESS;
}

int spbc_start(mpi::Rank& rank) {
  SpbcProtocol* p = proto_of(rank);
  if (p == nullptr) return SPBC_SUCCESS;
  ensure_handlers(rank, p);
  auto& fs = p->facade_state(rank.rank());
  if (fs.in_session) return SPBC_ERR_IN_SESSION;
  fs.in_session = true;
  fs.staged.clear();
  ++fs.sessions;
  return SPBC_SUCCESS;
}

int spbc_route(mpi::Rank& rank, const char* name, const void* data,
               uint64_t bytes, char* routed_path, uint64_t path_len) {
  if (name == nullptr || *name == '\0') return SPBC_ERR_BAD_ARG;
  if (data == nullptr && bytes != 0) return SPBC_ERR_BAD_ARG;
  SpbcProtocol* p = proto_of(rank);
  if (p == nullptr) {
    if (routed_path != nullptr && path_len > 0) routed_path[0] = '\0';
    return SPBC_SUCCESS;
  }
  auto& fs = p->facade_state(rank.rank());
  if (!fs.in_session) return SPBC_ERR_NO_SESSION;
  const auto* src = static_cast<const unsigned char*>(data);
  fs.staged[name].assign(src, src + bytes);
  if (routed_path != nullptr && path_len > 0) {
    // The capture lands in the node-LOCAL store of the rank's CURRENT
    // physical binding (after a spare hot-swap this is the spare node), as
    // part of the NEXT epoch's snapshot image. The staging chain promotes
    // it to redundancy/PFS from there.
    const int r = rank.rank();
    std::snprintf(routed_path, static_cast<size_t>(path_len),
                  "local://node%d/rank%d/epoch%llu/%s",
                  rank.machine().node_of(r), r,
                  static_cast<unsigned long long>(p->snapshot_epoch(r) + 1),
                  name);
  }
  return SPBC_SUCCESS;
}

int spbc_complete(mpi::Rank& rank, int valid) {
  SpbcProtocol* p = proto_of(rank);
  if (p == nullptr) return SPBC_SUCCESS;
  auto& fs = p->facade_state(rank.rank());
  if (!fs.in_session) return SPBC_ERR_NO_SESSION;
  fs.in_session = false;
  if (valid == 0) {
    // The app detected its own dump was torn: discard the session without
    // cutting. The previously committed regions stay the restore image.
    fs.staged.clear();
    return SPBC_SUCCESS;
  }
  // Commit: routed regions become the checkpointed image (regions absent
  // from this session keep their previously committed bytes, mirroring a
  // file set where unchanged files are carried forward), then cut the epoch
  // through the coordinated wave so cluster peers join.
  for (auto& [name, bytes] : fs.staged) fs.regions[name] = std::move(bytes);
  fs.staged.clear();
  ++fs.completes;
  p->checkpoint_now(rank);
  return SPBC_SUCCESS;
}

int spbc_have_restart(mpi::Rank& rank, int* flag) {
  if (flag == nullptr) return SPBC_ERR_BAD_ARG;
  *flag = 0;
  SpbcProtocol* p = proto_of(rank);
  if (p == nullptr) return SPBC_SUCCESS;
  ensure_handlers(rank, p);
  auto& fs = p->facade_state(rank.rank());
  // A sigma_0 rollback respawns with restarted=false and no pending app
  // bytes (machine.hpp: respawn_rank) — the app re-runs from the top with
  // no restart state, exactly like a fresh start.
  if (rank.restarted() && !fs.restart_loaded) {
    rank.restore_app_state();  // feeds the load handler -> fills regions
    fs.restart_loaded = true;
  }
  *flag = fs.regions.empty() ? 0 : 1;
  return SPBC_SUCCESS;
}

int spbc_restart_read(mpi::Rank& rank, const char* name, void* buf,
                      uint64_t* bytes) {
  if (name == nullptr || bytes == nullptr) return SPBC_ERR_BAD_ARG;
  if (buf == nullptr && *bytes != 0) return SPBC_ERR_BAD_ARG;
  SpbcProtocol* p = proto_of(rank);
  if (p == nullptr) return SPBC_ERR_NO_PROTOCOL;
  auto& fs = p->facade_state(rank.rank());
  auto it = fs.regions.find(name);
  if (it == fs.regions.end()) return SPBC_ERR_UNKNOWN_REGION;
  const uint64_t need = it->second.size();
  if (*bytes < need) {
    *bytes = need;
    return SPBC_ERR_TRUNCATED;
  }
  if (need > 0) std::memcpy(buf, it->second.data(), need);
  *bytes = need;
  return SPBC_SUCCESS;
}

}  // namespace spbc::core
