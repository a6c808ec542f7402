#include "ckpt/redundancy.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "mpi/machine.hpp"
#include "util/assert.hpp"
#include "util/gf256.hpp"

namespace spbc::ckpt {

std::optional<SchemeKind> parse_scheme(const std::string& name) {
  if (name == "single") return SchemeKind::kSingle;
  if (name == "partner") return SchemeKind::kPartner;
  if (name == "rs" || name == "reed-solomon") return SchemeKind::kReedSolomon;
  return std::nullopt;
}

int cross_domain_partner(const mpi::Machine& machine, int rank) {
  const sim::Topology& topo = machine.topology();
  const int nodes = topo.nodes();
  const int ppn = topo.ranks_per_node();
  const int home = topo.node_of(rank);
  const int slot = rank % ppn;
  int pick = -1;
  for (int off = 1; off < nodes; ++off) {
    const int cand = ((home + off) % nodes) * ppn + slot;
    // Physical distinctness: after a shrunk restart two logical nodes can
    // share one physical node, and a buddy copy there would die with the
    // owner's copy — no protection at all.
    if (machine.node_of(cand) == machine.node_of(rank)) continue;
    if (machine.cluster_of(cand) != machine.cluster_of(rank)) {
      return cand;  // different failure domain: the preferred buddy
    }
    if (pick < 0) pick = cand;  // fallback: nearest distinct node
  }
  return pick;
}

namespace {

// The direct plans every scheme shares: one read of the whole snapshot.
RestorePlan local_read(int rank, uint64_t bytes) {
  return {RestorePlan::Source::kLocal, {{StorageLevel::kLocal, rank, bytes}}};
}
RestorePlan pfs_read_or_none(int rank, uint64_t epoch,
                             const ResidencyView& view) {
  if (!view.has_pfs(rank, epoch)) return {};
  return {RestorePlan::Source::kPfs,
          {{StorageLevel::kPfs, -1, view.snapshot_bytes(rank, epoch)}}};
}

// ---------------------------------------------------------------------------
// kSingle: LOCAL only. The cheapest write path and the baseline the other
// schemes are measured against; a node loss always costs a PFS read (or an
// epoch fallback when the PFS frontier lags).
// ---------------------------------------------------------------------------
class SingleScheme : public RedundancyScheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kSingle; }
  std::vector<int> group_of(int) const override { return {}; }
  PlacementPlan encode(int, uint64_t, uint64_t,
                       const ResidencyView&) const override {
    return {};
  }
  bool recoverable_without_pfs(int rank, uint64_t epoch,
                               const ResidencyView& view) const override {
    return view.has_local(rank, epoch);
  }
  RestorePlan restore_plan(int rank, uint64_t epoch,
                           const ResidencyView& view) const override {
    if (view.has_local(rank, epoch))
      return local_read(rank, view.snapshot_bytes(rank, epoch));
    return pfs_read_or_none(rank, epoch, view);
  }
};

// ---------------------------------------------------------------------------
// kPartner: one full copy on the cross-failure-domain buddy node. Restores
// read LOCAL, then the buddy's copy over the network, then the PFS.
// ---------------------------------------------------------------------------
class PartnerScheme : public RedundancyScheme {
 public:
  explicit PartnerScheme(const mpi::Machine& machine) : machine_(machine) {}

  SchemeKind kind() const override { return SchemeKind::kPartner; }

  std::vector<int> group_of(int rank) const override {
    const int partner = partner_of(rank);
    if (partner < 0) return {};
    return {partner};
  }

  PlacementPlan encode(int rank, uint64_t epoch, uint64_t bytes,
                       const ResidencyView& view) const override {
    PlacementPlan plan;
    const int partner = partner_of(rank);
    if (partner < 0) return plan;  // single-node topology: no partner level
    const std::vector<Fragment>* frags = view.fragments(rank, epoch);
    if (frags != nullptr) {
      for (const Fragment& f : *frags)
        if (f.live && !f.parity) return plan;  // already protected
    }
    if (!view.node_in_service(machine_.node_of(partner)))
      return plan;  // copies must not land on a dead store
    plan.steps.push_back(PlacementStep{partner, bytes, /*parity=*/false});
    return plan;
  }

  bool recoverable_without_pfs(int rank, uint64_t epoch,
                               const ResidencyView& view) const override {
    if (view.has_local(rank, epoch)) return true;
    const std::vector<Fragment>* frags = view.fragments(rank, epoch);
    if (frags == nullptr) return false;
    for (const Fragment& f : *frags)
      if (f.live && !f.parity) return true;
    return false;
  }

  RestorePlan restore_plan(int rank, uint64_t epoch,
                           const ResidencyView& view) const override {
    const uint64_t bytes = view.snapshot_bytes(rank, epoch);
    if (view.has_local(rank, epoch)) return local_read(rank, bytes);
    const std::vector<Fragment>* frags = view.fragments(rank, epoch);
    if (frags != nullptr) {
      for (const Fragment& f : *frags) {
        if (f.live && !f.parity)
          return {RestorePlan::Source::kRemoteCopy,
                  {{StorageLevel::kPartner, f.host_rank, bytes}}};
      }
    }
    return pfs_read_or_none(rank, epoch, view);
  }

  void on_topology_change() override {
    // The buddy map is a memoized function of the physical binding; a
    // hot-swap or shrink re-derives it (fresh epochs then avoid partners
    // co-located with their owner).
    cache_.clear();
  }

 private:
  int partner_of(int rank) const {
    if (cache_.empty())
      cache_.assign(static_cast<size_t>(machine_.nranks()), -2);
    int& cached = cache_[static_cast<size_t>(rank)];
    if (cached == -2) cached = cross_domain_partner(machine_, rank);
    return cached;
  }

  const mpi::Machine& machine_;
  mutable std::vector<int> cache_;  // -2 unresolved, -1 none
};

// ---------------------------------------------------------------------------
// kReedSolomon: GF(256) systematic Reed-Solomon parity across a group of
// G = k + m nodes (util/gf256.hpp holds the arithmetic). XOR group parity
// (RAID-5) is the RS(G-1, 1) setting of the same scheme.
//
// Grouping: node ids are stable-sorted by their residents' cluster and dealt
// round-robin into ceil(nodes/G) groups, so consecutive same-cluster nodes
// land in different groups and each group spans as many failure domains as
// the machine allows. A rank's protection group is the same node-local slot
// on each node of its node group (block placement guarantees the slot
// exists).
//
// Encoding model (rotated MDS erasure coding, a la RAID-6 / Ceph EC pools,
// cooperative across the group like SCR's chunked XOR): conceptually the
// group's epoch-e snapshots form G data symbols per stripe row; the code
// extends each row by m Cauchy parity symbols, and every node holds one
// symbol per row. Per member that amortizes to m parity shares of
// ceil(B/k) bytes — (m/k)x the partner-copy bytes on the wire and on the
// host stores — dealt onto m distinct other group nodes, rotating by
// (epoch + rank) so one epoch's shares spread across the group. Each share
// carries a stable logical id (Fragment::share) selecting its Cauchy row
// (row = member_position * m + share), so a re-protection re-places the
// same symbol on a new host.
//
// Liveness (count model, capped at the code's distance): with r's LOCAL
// copy dead, epoch e is rebuildable without the PFS iff at most m members
// are unknown (their epoch-e LOCAL is dead or missing; r counts) and the
// number of live parity shares in the whole group (on in-service hosts) is
// at least the number of unknown members. Cauchy rows are linearly
// independent in any subset, so within the distance the count comparison is
// decode solvability; the restore planner still solves the actual decode
// submatrix and rejects a singular selection defensively. Any m concurrent
// in-group node losses keep every member rebuildable (each stripe row
// loses at most m symbols); m+1 losses exceed the code's distance and fall
// back to the PFS frontier epoch.
//
// Rebuild: the replacement node streams one folded ceil(B/k)-byte
// contribution from every known member plus one live parity share per
// unknown member — ~B * (k+m)/k total, each read a real net::Transfer.
// ---------------------------------------------------------------------------
class ReedSolomonScheme : public RedundancyScheme {
 public:
  ReedSolomonScheme(const mpi::Machine& machine, int k, int m)
      : machine_(machine), k_(k), m_(m) {
    SPBC_ASSERT_MSG(k_ >= 1 && m_ >= 1, "RS needs k, m >= 1: k=" << k_
                                                                << " m=" << m_);
    // The global Cauchy family needs G data columns + G*m parity rows of
    // distinct field elements.
    SPBC_ASSERT_MSG((k_ + m_) * (m_ + 1) <= 256,
                    "RS group too large for GF(256): k=" << k_ << " m=" << m_);
  }

  SchemeKind kind() const override { return SchemeKind::kReedSolomon; }

  std::vector<int> group_of(int rank) const override {
    std::vector<int> members = group_ranks(rank);
    members.erase(std::remove(members.begin(), members.end(), rank),
                  members.end());
    return members;
  }

  PlacementPlan encode(int rank, uint64_t epoch, uint64_t bytes,
                       const ResidencyView& view) const override {
    PlacementPlan plan;
    const std::vector<int> others = group_of(rank);
    if (others.empty()) return plan;
    // Shares still missing: all m at first encode, the lost ones after a
    // host death (re-protection re-places exactly the dead symbols). A
    // share whose latest placement attempt is still in flight to an
    // in-service host counts as covered — it will land, or the generation
    // check will re-issue it; re-placing it here would duplicate the share
    // id and could co-locate two of the owner's shares on one host,
    // silently shrinking the any-m-loss distance. Only the share's most
    // recent attempt matters: older dead fragments on since-revived nodes
    // must not mask a genuinely lost share.
    std::set<int> missing;
    for (int s = 0; s < m_; ++s) missing.insert(s);
    std::set<int> hosts_taken;
    const std::vector<Fragment>* frags = view.fragments(rank, epoch);
    if (frags != nullptr) {
      std::map<int, const Fragment*> latest;  // share -> last non-live attempt
      for (const Fragment& f : *frags) {
        if (!f.parity) continue;
        if (f.live) {
          missing.erase(f.share);
          hosts_taken.insert(f.host_rank);
        } else {
          latest[f.share] = &f;  // fragments are appended chronologically
        }
      }
      for (const auto& [share, f] : latest) {
        if (!missing.count(share)) continue;  // a live copy already covers it
        // An audit-confirmed silent loss (corrupt bit on a dead fragment) is
        // NOT in flight — its host is in service yet the bytes are gone, and
        // the share must be re-placed.
        if (f->corrupt) continue;
        if (view.node_in_service(f->host_node)) {
          missing.erase(share);  // in flight: will land or retry
          hosts_taken.insert(f->host_rank);
        }
      }
    }
    if (missing.empty()) return plan;
    const uint64_t chunk = share_bytes(bytes);
    // Rotate the host deal by epoch and by the member's own position so one
    // epoch's shares spread across the whole group.
    const size_t start = static_cast<size_t>(
        (epoch + static_cast<uint64_t>(rank)) % others.size());
    size_t probe = 0;
    for (int s : missing) {
      int host = -1;
      for (; probe < others.size(); ++probe) {
        const int cand = others[(start + probe) % others.size()];
        if (hosts_taken.count(cand)) continue;
        if (!view.node_in_service(machine_.node_of(cand))) continue;
        host = cand;
        break;
      }
      if (host < 0) break;  // fewer viable hosts than missing shares
      ++probe;
      hosts_taken.insert(host);
      plan.steps.push_back(PlacementStep{host, chunk, /*parity=*/true, s});
    }
    return plan;
  }

  bool recoverable_without_pfs(int rank, uint64_t epoch,
                               const ResidencyView& view) const override {
    if (view.has_local(rank, epoch)) return true;
    return plan_rebuild(rank, epoch, view, nullptr);
  }

  RestorePlan restore_plan(int rank, uint64_t epoch,
                           const ResidencyView& view) const override {
    if (view.has_local(rank, epoch))
      return local_read(rank, view.snapshot_bytes(rank, epoch));
    RestorePlan plan{RestorePlan::Source::kRebuild, {}};
    if (plan_rebuild(rank, epoch, view, &plan.reads)) return plan;
    return pfs_read_or_none(rank, epoch, view);
  }

 private:
  /// Every rank of `rank`'s protection group, `rank` included, ordered by
  /// node id — the stable symbol positions the Cauchy rows are keyed on.
  std::vector<int> group_ranks(int rank) const {
    build_groups();
    const sim::Topology& topo = machine_.topology();
    const int ppn = topo.ranks_per_node();
    const int slot = rank % ppn;
    const std::vector<int>& nodes = groups_[static_cast<size_t>(
        node_group_[static_cast<size_t>(topo.node_of(rank))])];
    std::vector<int> members;
    members.reserve(nodes.size());
    for (int n : nodes) members.push_back(n * ppn + slot);
    return members;
  }

  void build_groups() const {
    if (!node_group_.empty()) return;
    const sim::Topology& topo = machine_.topology();
    const int nodes = topo.nodes();
    const int ppn = topo.ranks_per_node();
    std::vector<int> order(static_cast<size_t>(nodes));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return machine_.cluster_of(a * ppn) < machine_.cluster_of(b * ppn);
    });
    const int group_size = k_ + m_;
    const int ngroups = (nodes + group_size - 1) / group_size;
    node_group_.assign(static_cast<size_t>(nodes), 0);
    groups_.assign(static_cast<size_t>(ngroups), {});
    for (size_t i = 0; i < order.size(); ++i) {
      const int g = static_cast<int>(i) % ngroups;
      node_group_[static_cast<size_t>(order[i])] = g;
      groups_[static_cast<size_t>(g)].push_back(order[i]);
    }
    for (std::vector<int>& g : groups_) std::sort(g.begin(), g.end());
  }

  uint64_t share_bytes(uint64_t bytes) const {
    const uint64_t k = static_cast<uint64_t>(k_);
    return (bytes + k - 1) / k;  // ceil(B / k)
  }

  /// Decode feasibility (and, when `reads` is non-null, the read list) for
  /// rebuilding (rank, epoch) out of the group: known members contribute a
  /// folded data chunk, one live parity share per unknown member closes the
  /// system, and the Cauchy decode submatrix is solved to prove it.
  bool plan_rebuild(int rank, uint64_t epoch, const ResidencyView& view,
                    std::vector<RestorePlan::Read>* reads) const {
    if (view.fragments(rank, epoch) == nullptr) return false;
    const std::vector<int> members = group_ranks(rank);
    const int g = static_cast<int>(members.size());
    if (g < 2) return false;

    struct Share {
      int row = 0;
      int host_rank = -1;
      uint64_t bytes = 0;
    };
    std::vector<int> unknowns;  // positions whose epoch-e data is gone
    std::vector<Share> live_shares;
    std::set<int> rows_seen;
    for (int p = 0; p < g; ++p) {
      const int member = members[static_cast<size_t>(p)];
      const bool data_ok = member != rank && view.has_local(member, epoch) &&
                           view.node_in_service(machine_.node_of(member));
      if (!data_ok) unknowns.push_back(p);
      const std::vector<Fragment>* frags = view.fragments(member, epoch);
      if (frags == nullptr) continue;
      for (const Fragment& f : *frags) {
        if (!f.live || !f.parity) continue;
        if (!view.node_in_service(f.host_node)) continue;
        const int row = p * m_ + f.share;
        if (!rows_seen.insert(row).second) continue;  // re-placed duplicate
        live_shares.push_back(Share{row, f.host_rank, f.bytes});
      }
    }
    const int u = static_cast<int>(unknowns.size());
    if (u == 0) return false;  // nothing to rebuild (caller saw LOCAL dead)
    if (u > m_) return false;  // beyond the code's distance
    if (static_cast<int>(live_shares.size()) < u) return false;

    // Solve the decode submatrix: chosen parity rows x unknown columns. A
    // Cauchy selection is provably nonsingular, but the solver is the
    // arbiter — a singular selection (defensive) rejects the rebuild.
    const util::gf256::Matrix& family = family_for(g);
    util::gf256::Matrix dec(u, u);
    for (int i = 0; i < u; ++i)
      for (int j = 0; j < u; ++j)
        dec.at(i, j) = family.at(live_shares[static_cast<size_t>(i)].row,
                                 unknowns[static_cast<size_t>(j)]);
    if (!util::gf256::invert(dec)) return false;

    if (reads != nullptr) {
      const uint64_t chunk = share_bytes(view.snapshot_bytes(rank, epoch));
      for (int p = 0; p < g; ++p) {
        const int member = members[static_cast<size_t>(p)];
        if (member == rank) continue;
        if (std::find(unknowns.begin(), unknowns.end(), p) != unknowns.end())
          continue;
        reads->push_back(
            RestorePlan::Read{StorageLevel::kPartner, member, chunk});
      }
      for (int i = 0; i < u; ++i) {
        const Share& s = live_shares[static_cast<size_t>(i)];
        reads->push_back(
            RestorePlan::Read{StorageLevel::kPartner, s.host_rank, s.bytes});
      }
    }
    return true;
  }

  /// The (g*m x g) Cauchy row family for a group of g members. Depends only
  /// on (g, m_), and liveness queries run per (rank, epoch) on every
  /// restore-planning pass — cache it per group size (the round-robin deal
  /// can produce one short group).
  const util::gf256::Matrix& family_for(int g) const {
    auto it = family_cache_.find(g);
    if (it == family_cache_.end())
      it = family_cache_
               .emplace(g, util::gf256::cauchy_parity_matrix(g, g * m_))
               .first;
    return it->second;
  }

  const mpi::Machine& machine_;
  int k_, m_;
  mutable std::vector<int> node_group_;           // node -> group id (lazy)
  mutable std::vector<std::vector<int>> groups_;  // group id -> node ids
  mutable std::map<int, util::gf256::Matrix> family_cache_;
};

}  // namespace

std::unique_ptr<RedundancyScheme> RedundancyScheme::make(
    const RedundancyConfig& cfg, const mpi::Machine& machine) {
  switch (cfg.kind) {
    case SchemeKind::kSingle:
      return std::make_unique<SingleScheme>();
    case SchemeKind::kPartner:
      return std::make_unique<PartnerScheme>(machine);
    case SchemeKind::kReedSolomon:
      return std::make_unique<ReedSolomonScheme>(machine, cfg.rs_k, cfg.rs_m);
  }
  SPBC_UNREACHABLE("redundancy scheme kind");
}

}  // namespace spbc::ckpt
