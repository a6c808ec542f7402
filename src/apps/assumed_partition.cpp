#include "apps/assumed_partition.hpp"

#include <map>
#include <mutex>
#include <tuple>

#include "apps/decomp.hpp"
#include "mpi/collectives.hpp"

namespace spbc::apps {

const ContactTable& contact_table(ContactSet set, int n, int level) {
  static std::mutex mu;
  static std::map<std::tuple<ContactSet, int, int>, ContactTable> tables;
  std::lock_guard<std::mutex> g(mu);
  auto [it, fresh] = tables.try_emplace({set, n, level});
  ContactTable& t = it->second;
  if (!fresh) return t;
  const Grid3D grid = Grid3D::balanced(n, /*periodic=*/false);
  const bool amg = set == ContactSet::kAmgLevel;
  const uint64_t salt = set == ContactSet::kMinifeSetup ? 0xfe : 0xfacade;
  t.contacts.resize(static_cast<size_t>(n));
  t.expected.assign(static_cast<size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    std::vector<int>& c = t.contacts[static_cast<size_t>(r)];
    c = grid.face_neighbors(r);
    const auto ur = static_cast<uint64_t>(r), ul = static_cast<uint64_t>(level);
    for (uint64_t k = 0; k < (amg ? 2 * ul : 2); ++k) {
      const int x = static_cast<int>(
          (amg ? synthetic_hash(ur, ul, k, 0xa3) : synthetic_hash(ur, k, salt, 0)) %
          static_cast<uint64_t>(n));
      if (x != r) c.push_back(x);
    }
    for (int x : c) ++t.expected[static_cast<size_t>(x)];
  }
  return t;
}

int assumed_partition_exchange(mpi::Rank& rank, const mpi::Comm& comm,
                               const AppConfig& cfg, const ApExchangeSpec& spec,
                               uint64_t& checksum) {
  const int me = comm.comm_rank(rank.rank());
  SPBC_ASSERT(me >= 0);

  // Whom do I query? (local data); how many query me? (the termination
  // count — the same table everywhere).
  SPBC_ASSERT(spec.contacts != nullptr &&
              spec.contacts->contacts.size() == static_cast<size_t>(comm.size()));
  const std::vector<int>& contacts = spec.contacts->contacts[static_cast<size_t>(me)];
  const int expected = spec.contacts->expected[static_cast<size_t>(me)];

  // First loop of Figure 4: post reply receptions and send the queries.
  std::vector<mpi::Request> reply_recvs;
  reply_recvs.reserve(contacts.size());
  for (int c : contacts) {
    reply_recvs.push_back(rank.irecv(c, spec.tag_reply, comm));
    uint64_t h = synthetic_hash(static_cast<uint64_t>(me), static_cast<uint64_t>(c),
                                spec.hash_key, 1);
    rank.isend(c, spec.tag_query,
               make_payload(cfg, static_cast<uint64_t>(
                                     static_cast<double>(spec.query_bytes) * cfg.msg_scale),
                            h),
               comm);
  }

  // Probe loop: serve queries from anyone until all arrived.
  std::vector<mpi::Request> reply_sends;
  int served = 0;
  while (served < expected) {
    mpi::Status st = rank.probe(mpi::kAnySource, spec.tag_query, comm);
    mpi::RecvResult rr = rank.recv(st.source, spec.tag_query, comm);
    // Queries are served in arrival order, which is NOT fixed by the
    // algorithm (channel-determinism constrains channels, not the interleave
    // at the receiver) — fold commutatively.
    fold_checksum_commutative(checksum, rr);
    uint64_t h = synthetic_hash(static_cast<uint64_t>(me),
                                static_cast<uint64_t>(st.source), spec.hash_key, 2);
    reply_sends.push_back(rank.isend(
        st.source, spec.tag_reply,
        make_payload(cfg, static_cast<uint64_t>(
                              static_cast<double>(spec.reply_bytes) * cfg.msg_scale),
                     h),
        comm));
    ++served;
  }

  // Collect the replies to my own queries.
  for (auto& req : reply_recvs) {
    rank.wait(req);
    fold_checksum(checksum, req.result());
  }
  rank.waitall(reply_sends);

  // The always-happens-before relation between iterations (Section 5.1):
  // nobody starts iteration n+1 before everyone finished iteration n.
  if (spec.close_with_barrier) mpi::barrier(rank, comm);
  return served;
}

}  // namespace spbc::apps
