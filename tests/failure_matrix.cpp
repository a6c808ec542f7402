#include "failure_matrix.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "ckpt/reduction.hpp"
#include "ckpt/staging.hpp"
#include "core/spbc.hpp"
#include "mpi/machine.hpp"
#include "util/codec.hpp"
#include "util/gf256.hpp"
#include "util/rng.hpp"

namespace spbc::testing {

namespace {

// Event schedule (virtual seconds). Mid-drain / mid-rebuild cases use a
// 100 MB snapshot so the placement / rebuild transfers are long enough to
// lose a node mid-flight; the other timings use small payloads.
constexpr double kEpoch1At = 0.01;
constexpr double kEpoch2At = 0.5;
constexpr uint64_t kBigBytes = 100000000;

uint64_t checksum(const std::vector<uint8_t>& bytes) {
  util::Fnv1a64 h;
  h.update(bytes.data(), bytes.size());
  return h.digest();
}

}  // namespace

const char* scheme_name(ckpt::SchemeKind kind) {
  switch (kind) {
    case ckpt::SchemeKind::kSingle:
      return "single";
    case ckpt::SchemeKind::kPartner:
      return "partner";
    case ckpt::SchemeKind::kReedSolomon:
      return "rs";
  }
  return "?";
}

const char* timing_name(FailureCase::Timing t) {
  switch (t) {
    case FailureCase::Timing::kPreDrain:
      return "pre-drain";
    case FailureCase::Timing::kSettled:
      return "settled";
    case FailureCase::Timing::kMidDrain:
      return "mid-drain";
    case FailureCase::Timing::kMidRebuild:
      return "mid-rebuild";
    case FailureCase::Timing::kMidScrub:
      return "mid-scrub";
    case FailureCase::Timing::kSpareSwap:
      return "spare-swap";
    case FailureCase::Timing::kMidDeltaChain:
      return "mid-delta-chain";
  }
  return "?";
}

const char* hostile_name(FailureCase::Hostile h) {
  switch (h) {
    case FailureCase::Hostile::kNone:
      return "none";
    case FailureCase::Hostile::kStragglerSkew:
      return "straggler-skew";
    case FailureCase::Hostile::kPartitionHeal:
      return "partition-heal";
    case FailureCase::Hostile::kRackDomain:
      return "rack-domain";
    case FailureCase::Hostile::kSwitchDomain:
      return "switch-domain";
    case FailureCase::Hostile::kPsuDomain:
      return "psu-domain";
  }
  return "?";
}

FailureCase sample_case(uint64_t seed) {
  util::Pcg32 rng(seed, 0xfa17);
  FailureCase c;
  c.seed = seed;

  switch (rng.next_bounded(4)) {
    case 0:
      c.redundancy.kind = ckpt::SchemeKind::kSingle;
      break;
    case 1:
      c.redundancy.kind = ckpt::SchemeKind::kPartner;
      break;
    case 2:  // XOR over 3..5-node groups: RS(G-1, 1)
      c.redundancy.kind = ckpt::SchemeKind::kReedSolomon;
      c.redundancy.rs_k = 2 + static_cast<int>(rng.next_bounded(3));
      c.redundancy.rs_m = 1;
      break;
    default:
      c.redundancy.kind = ckpt::SchemeKind::kReedSolomon;
      c.redundancy.rs_k = 2 + static_cast<int>(rng.next_bounded(5));  // 2..6
      c.redundancy.rs_m = 1 + static_cast<int>(rng.next_bounded(3));  // 1..3
      break;
  }

  // Machine: at least one full protection group plus slack, one rank per
  // node so "node" and "rank" coincide and loss patterns stay legible.
  int span = 2;
  if (c.redundancy.kind == ckpt::SchemeKind::kReedSolomon)
    span = c.redundancy.rs_k + c.redundancy.rs_m;
  c.nodes = span + static_cast<int>(rng.next_bounded(5));
  // Failure domains: 2..nodes clusters, nodes dealt contiguously.
  c.nclusters = 2 + static_cast<int>(
                        rng.next_bounded(static_cast<uint32_t>(c.nodes - 1)));

  const uint32_t timing = rng.next_bounded(7);
  c.timing = static_cast<FailureCase::Timing>(timing);
  c.bytes = (c.timing == FailureCase::Timing::kMidDrain ||
             c.timing == FailureCase::Timing::kMidRebuild)
                ? kBigBytes
                : 256 + 64 * rng.next_bounded(120);

  // Loss count: 1 .. tolerance+1, so the sweep probes both sides of every
  // scheme's advertised distance.
  int max_losses = 2;
  if (c.redundancy.kind == ckpt::SchemeKind::kReedSolomon)
    max_losses = c.redundancy.rs_m + 1;
  max_losses = std::min(max_losses, c.nodes - 1);
  c.losses = 1 + static_cast<int>(
                     rng.next_bounded(static_cast<uint32_t>(max_losses)));
  c.correlated = rng.next_bounded(2) == 0;
  c.flush_pfs = rng.next_bounded(4) == 0;
  // Spare pool for the permanent-loss bucket: 0 (forces shrunk restarts)
  // through 2; larger losses than spares mix hot-swaps and shrinks.
  if (c.timing == FailureCase::Timing::kSpareSwap)
    c.spares = static_cast<int>(rng.next_bounded(3));
  // Hostile-shape dimension, drawn LAST so it composes with every earlier
  // draw (scheme x shape x losses x timing x correlation x PFS x spares).
  c.hostile = static_cast<FailureCase::Hostile>(rng.next_bounded(6));
  return c;
}

std::string describe_case(const FailureCase& c) {
  std::ostringstream os;
  os << "seed=" << c.seed << " scheme=" << scheme_name(c.redundancy.kind);
  if (c.redundancy.kind == ckpt::SchemeKind::kReedSolomon)
    os << " k=" << c.redundancy.rs_k << " m=" << c.redundancy.rs_m;
  os << " nodes=" << c.nodes << " clusters=" << c.nclusters
     << " bytes=" << c.bytes << " losses=" << c.losses
     << (c.correlated ? " correlated" : " independent")
     << " timing=" << timing_name(c.timing)
     << (c.flush_pfs ? " pfs=fast" : " pfs=lagging");
  if (c.timing == FailureCase::Timing::kSpareSwap)
    os << " spares=" << c.spares;
  if (c.hostile != FailureCase::Hostile::kNone)
    os << " hostile=" << hostile_name(c.hostile);
  return os.str();
}

namespace {

// ---------------------------------------------------------------------------
// Shadow codec: re-derives a victim's snapshot from the surviving residency
// with the real arithmetic (GF(256) Cauchy solve for RS, full copy for
// PARTNER) and compares checksums against the original payload. It reads
// only what the residency view says is live — exactly the data a real
// rebuild could stream.
//
// The shadow models the full data-reduction pipeline (DESIGN.md §15):
// logical payloads come from the shared block-mutation generator
// (ckpt::make_state / evolve_state — the same primitives the protocol's
// synthetic state model uses), what the wire carries is the ENCODED blob
// (epoch 2 is a block delta over epoch 1 when smaller; both epochs LZ
// compressed when smaller), and checksum identity is asserted on the
// LOGICAL (decoded) payload. A defect in the codec, the delta scatter, or
// the chain decode fails the oracle even when the scheme arithmetic is
// right. Wire blobs differ in length across ranks, so RS operates over
// the group-max length with zero padding (length metadata travels with the
// fragment header, as in a real striped layout).
// ---------------------------------------------------------------------------
class ShadowCodec {
 public:
  ShadowCodec(const ckpt::RedundancyConfig& red, const ckpt::StagingArea& area,
              int nodes, uint64_t bytes, util::Pcg32& rng)
      : red_(red),
        area_(area),
        // The codec verifies the reconstruction *math*, not data volume:
        // payloads are capped so the 100 MB timing cases don't generate
        // gigabytes of shadow bytes. The sim still accounts the full size.
        len_(static_cast<size_t>(std::min<uint64_t>(bytes, 4096))) {
    smc_.bytes = len_;
    smc_.block_bytes = 256;
    smc_.mutation_rate = 0.25;
    smc_.seed = rng.next_u64();
    for (int r = 0; r < nodes; ++r) {
      std::vector<unsigned char> buf = ckpt::make_state(smc_, r);
      ckpt::evolve_state(buf, smc_, r, 1);
      originals_[{r, 1}].assign(buf.begin(), buf.end());
      ckpt::evolve_state(buf, smc_, r, 2);
      originals_[{r, 2}].assign(buf.begin(), buf.end());
      encode(r);
    }
  }

  uint64_t original_checksum(int rank, uint64_t epoch) const {
    return checksum(originals_.at({rank, epoch}));
  }

  /// Rebuilds (rank, epoch)'s wire blob from live residency and decodes it
  /// back to the logical payload; false when the surviving symbols cannot
  /// determine it or the rebuilt blob does not decode (the caller asserts
  /// this never happens while the scheme claims liveness).
  bool reconstruct(int rank, uint64_t epoch, std::vector<uint8_t>* out) const {
    std::vector<uint8_t> enc;
    switch (red_.kind) {
      case ckpt::SchemeKind::kSingle:
        return false;  // no remote redundancy to decode from
      case ckpt::SchemeKind::kPartner: {
        const std::vector<ckpt::Fragment>* frags =
            area_.fragments(rank, epoch);
        if (frags == nullptr) return false;
        bool copy_live = false;
        for (const ckpt::Fragment& f : *frags)
          if (f.live && !f.corrupt && !f.parity &&
              area_.node_in_service(f.host_node))
            copy_live = true;
        if (!copy_live) return false;
        enc = blobs_.at({rank, epoch}).enc;  // the copy is the wire blob
        break;
      }
      case ckpt::SchemeKind::kReedSolomon:
        if (!reconstruct_rs(rank, epoch, &enc)) return false;
        break;
    }
    return decode(rank, epoch, enc, out);
  }

 private:
  // Wire form of one epoch: delta (changed 256-byte blocks vs epoch 1) and
  // LZ compression, each kept only when smaller — the store's policy.
  struct Blob {
    std::vector<uint8_t> enc;
    uint64_t payload_len = 0;  // pre-compression (delta payload) bytes
    bool compressed = false;
    bool delta = false;
    std::vector<uint32_t> changed;
  };

  void pack(std::vector<uint8_t> payload, Blob* b) {
    b->payload_len = payload.size();
    std::vector<unsigned char> enc =
        util::codec::lz_compress(payload.data(), payload.size());
    if (enc.size() < payload.size()) {
      b->compressed = true;
      b->enc.assign(enc.begin(), enc.end());
    } else {
      b->enc = std::move(payload);
    }
  }

  void encode(int r) {
    const std::vector<uint8_t>& v1 = originals_.at({r, 1});
    const std::vector<uint8_t>& v2 = originals_.at({r, 2});
    Blob b1;
    pack(v1, &b1);
    blobs_[{r, 1}] = std::move(b1);
    const std::vector<uint64_t> h1 = ckpt::hash_blocks(v1, smc_.block_bytes);
    const std::vector<uint64_t> h2 = ckpt::hash_blocks(v2, smc_.block_bytes);
    Blob b2;
    for (uint32_t blk = 0; blk < h2.size(); ++blk)
      if (blk >= h1.size() || h1[blk] != h2[blk]) b2.changed.push_back(blk);
    if (b2.changed.size() < h2.size()) {
      b2.delta = true;
      std::vector<uint8_t> payload;
      for (uint32_t blk : b2.changed) {
        const size_t off = static_cast<size_t>(blk) * smc_.block_bytes;
        const size_t n = std::min<size_t>(smc_.block_bytes, len_ - off);
        payload.insert(payload.end(), v2.begin() + static_cast<long>(off),
                       v2.begin() + static_cast<long>(off + n));
      }
      pack(std::move(payload), &b2);
    } else {
      b2.changed.clear();
      pack(v2, &b2);
    }
    blobs_[{r, 2}] = std::move(b2);
  }

  // Wire blob -> logical payload: decompress, then scatter a delta's changed
  // blocks over the decoded epoch-1 base (the store materializes the chain
  // base the same way on the real restore path).
  bool decode(int rank, uint64_t epoch, const std::vector<uint8_t>& enc,
              std::vector<uint8_t>* out) const {
    const Blob& b = blobs_.at({rank, epoch});
    std::vector<uint8_t> payload;
    if (b.compressed) {
      payload.resize(b.payload_len);
      if (!util::codec::lz_decompress(enc.data(), enc.size(), payload.data(),
                                      payload.size()))
        return false;
    } else {
      payload = enc;
    }
    if (!b.delta) {
      *out = std::move(payload);
      return true;
    }
    std::vector<uint8_t> base;
    if (!decode(rank, 1, blobs_.at({rank, 1}).enc, &base)) return false;
    base.resize(len_);
    size_t src = 0;
    for (uint32_t blk : b.changed) {
      const size_t off = static_cast<size_t>(blk) * smc_.block_bytes;
      const size_t n = std::min<size_t>(smc_.block_bytes, len_ - off);
      if (src + n > payload.size()) return false;
      std::copy(payload.begin() + static_cast<long>(src),
                payload.begin() + static_cast<long>(src + n),
                base.begin() + static_cast<long>(off));
      src += n;
    }
    *out = std::move(base);
    return true;
  }

  std::vector<int> group_ranks(int rank) const {
    std::vector<int> members = area_.scheme().group_of(rank);
    members.push_back(rank);
    std::sort(members.begin(), members.end());
    return members;
  }

  bool data_live(int member, uint64_t epoch) const {
    return area_.has_local(member, epoch) && area_.node_in_service(member);
  }

  size_t group_wire_len(const std::vector<int>& members,
                        uint64_t epoch) const {
    size_t n = 0;
    for (int m : members) n = std::max(n, blobs_.at({m, epoch}).enc.size());
    return n;
  }

  std::vector<uint8_t> padded_wire(int rank, uint64_t epoch, size_t n) const {
    std::vector<uint8_t> v = blobs_.at({rank, epoch}).enc;
    v.resize(n, 0);
    return v;
  }

  // RS: each live share is one Cauchy equation (row = position * m + share)
  // over the group's member wire blobs; solve for the unknown members and
  // return the requested one.
  bool reconstruct_rs(int rank, uint64_t epoch,
                      std::vector<uint8_t>* out) const {
    const std::vector<int> members = group_ranks(rank);
    const int g = static_cast<int>(members.size());
    const int m = red_.rs_m;
    const size_t wlen = group_wire_len(members, epoch);
    std::vector<int> unknowns;
    for (int p = 0; p < g; ++p)
      if (!data_live(members[static_cast<size_t>(p)], epoch))
        unknowns.push_back(p);
    const auto rank_pos = std::find(members.begin(), members.end(), rank);
    const int target = static_cast<int>(rank_pos - members.begin());
    if (std::find(unknowns.begin(), unknowns.end(), target) == unknowns.end())
      return false;  // the owner's data is live; nothing to decode

    struct Eq {
      int row = 0;
      std::vector<uint8_t> rhs;  // share content minus the known members
    };
    const util::gf256::Matrix family =
        util::gf256::cauchy_parity_matrix(g, g * m);
    std::vector<Eq> eqs;
    std::set<int> rows_seen;
    for (int p = 0; p < g; ++p) {
      const std::vector<ckpt::Fragment>* frags =
          area_.fragments(members[static_cast<size_t>(p)], epoch);
      if (frags == nullptr) continue;
      for (const ckpt::Fragment& f : *frags) {
        if (!f.live || f.corrupt || !f.parity ||
            !area_.node_in_service(f.host_node))
          continue;
        const int row = p * m + f.share;
        if (!rows_seen.insert(row).second) continue;
        if (static_cast<int>(eqs.size()) == static_cast<int>(unknowns.size()))
          continue;  // enough equations picked
        // Share content minus the known members' terms: in GF(2^8) addition
        // is XOR, so the RHS is just the unknown columns' contribution.
        Eq eq;
        eq.row = row;
        eq.rhs.assign(wlen, 0);
        for (int j : unknowns) {
          const std::vector<uint8_t> d =
              padded_wire(members[static_cast<size_t>(j)], epoch, wlen);
          util::gf256::mul_add(eq.rhs.data(), d.data(), eq.rhs.size(),
                               family.at(row, j));
        }
        eqs.push_back(std::move(eq));
      }
    }
    const int u = static_cast<int>(unknowns.size());
    if (static_cast<int>(eqs.size()) < u) return false;
    util::gf256::Matrix dec(u, u);
    for (int i = 0; i < u; ++i)
      for (int j = 0; j < u; ++j)
        dec.at(i, j) =
            family.at(eqs[static_cast<size_t>(i)].row,
                      unknowns[static_cast<size_t>(j)]);
    if (!util::gf256::invert(dec)) return false;
    // Target row of the inverse applied to the RHS vectors.
    int trow = 0;
    while (unknowns[static_cast<size_t>(trow)] != target) ++trow;
    std::vector<uint8_t> solved(wlen, 0);
    for (int i = 0; i < u; ++i)
      util::gf256::mul_add(solved.data(),
                           eqs[static_cast<size_t>(i)].rhs.data(),
                           solved.size(), dec.at(trow, i));
    solved.resize(blobs_.at({rank, epoch}).enc.size());
    *out = std::move(solved);
    return true;
  }

  const ckpt::RedundancyConfig red_;
  const ckpt::StagingArea& area_;
  size_t len_;  // shadow payload length (capped; see constructor)
  ckpt::StateModelConfig smc_;
  std::map<std::pair<int, uint64_t>, std::vector<uint8_t>> originals_;
  std::map<std::pair<int, uint64_t>, Blob> blobs_;
};

struct CaseRunner {
  const FailureCase& c;
  CaseResult result;

  void fail(const std::string& what) {
    result.ok = false;
    result.violations.push_back(what + "  [" + describe_case(c) + "]");
  }
};

}  // namespace

bool oracle_recoverable(const ckpt::StagingArea& area,
                        const ckpt::RedundancyConfig& red, int nodes,
                        int rank, uint64_t epoch) {
  if (area.has_local(rank, epoch)) return true;
  // Random payloads make a wrong reconstruction collide with the original
  // checksum with probability ~2^-64; the seed only varies the bytes.
  util::Pcg32 rng(0x0bacULL + static_cast<uint64_t>(rank) * 977 + epoch,
                  0x5eed);
  ShadowCodec codec(red, area, nodes, 512, rng);
  std::vector<uint8_t> out;
  if (!codec.reconstruct(rank, epoch, &out)) return false;
  return checksum(out) == codec.original_checksum(rank, epoch);
}

CaseResult run_case(const FailureCase& c) {
  CaseRunner run{c, {}};
  util::Pcg32 rng(c.seed, 0x5badc0de);

  mpi::MachineConfig mc;
  mc.nranks = c.nodes;
  mc.ranks_per_node = 1;
  mc.spare_nodes = c.spares;
  // Hostile shape: healing partition over the epoch-2 drain era. Fragment
  // placements crossing the nodes/2 boundary are held in the fabric until
  // the heal — which lands before every settled-family kill/check time, so
  // held placements must arrive, count, and restore like unheld ones.
  if (c.hostile == FailureCase::Hostile::kPartitionHeal) {
    net::PartitionPhase p;
    p.start = kEpoch2At;
    p.heal = kEpoch2At + 0.6;
    p.boundary_node = std::max(1, c.nodes / 2);
    mc.net.partitions.push_back(p);
  }
  auto proto = std::make_unique<core::SpbcProtocol>(core::SpbcConfig{});
  mpi::Machine m(mc, std::move(proto));
  std::vector<int> clusters(static_cast<size_t>(c.nodes));
  const int span = (c.nodes + c.nclusters - 1) / c.nclusters;
  for (int n = 0; n < c.nodes; ++n)
    clusters[static_cast<size_t>(n)] = n / span;
  m.set_cluster_of(clusters);

  ckpt::StagingConfig sc;
  sc.level = ckpt::StorageLevel::kPfs;
  sc.async = true;
  sc.model.pfs_bw = c.flush_pfs ? 1.0e12 : 1.0;  // instant vs never-lands
  sc.redundancy = c.redundancy;
  ckpt::StagingArea area(sc);
  area.attach(m);

  ShadowCodec shadow(c.redundancy, area, c.nodes, c.bytes, rng);

  // Victims: `losses` distinct nodes, either spread independently or all
  // drawn from one failure domain (the correlated multi-node pattern a
  // cluster failure produces).
  std::vector<int> victims;
  {
    std::vector<int> pool;
    // Hostile hardware domains trump the cluster-correlated pool: the blast
    // radius is a rack (contiguous 4-node span), a leaf switch (node % 2
    // stripe), or a PSU pair — patterns that cut ACROSS the cluster map and
    // across redundancy groups.
    switch (c.hostile) {
      case FailureCase::Hostile::kRackDomain: {
        const int racks = (c.nodes + 3) / 4;
        const int rack =
            static_cast<int>(rng.next_bounded(static_cast<uint32_t>(racks)));
        for (int n = rack * 4; n < std::min(c.nodes, rack * 4 + 4); ++n)
          pool.push_back(n);
        break;
      }
      case FailureCase::Hostile::kSwitchDomain: {
        const int sw = static_cast<int>(rng.next_bounded(2));
        for (int n = 0; n < c.nodes; ++n)
          if (n % 2 == sw) pool.push_back(n);
        break;
      }
      case FailureCase::Hostile::kPsuDomain: {
        const int pairs = (c.nodes + 1) / 2;
        const int p =
            static_cast<int>(rng.next_bounded(static_cast<uint32_t>(pairs)));
        if (p * 2 < c.nodes) pool.push_back(p * 2);
        if (p * 2 + 1 < c.nodes) pool.push_back(p * 2 + 1);
        break;
      }
      default:
        break;
    }
    if (static_cast<int>(pool.size()) < c.losses) pool.clear();
    if (!pool.empty()) {
      // Domain pool in effect; fall through to the draw below.
    } else if (c.correlated) {
      int dom = clusters[static_cast<size_t>(
          rng.next_bounded(static_cast<uint32_t>(c.nodes)))];
      for (int n = 0; n < c.nodes; ++n)
        if (clusters[static_cast<size_t>(n)] == dom) pool.push_back(n);
      if (static_cast<int>(pool.size()) < c.losses) {
        pool.clear();  // domain too small: widen to the whole machine
        for (int n = 0; n < c.nodes; ++n) pool.push_back(n);
      }
    } else {
      for (int n = 0; n < c.nodes; ++n) pool.push_back(n);
    }
    for (int i = 0; i < c.losses; ++i) {
      const size_t pick = rng.next_bounded(static_cast<uint32_t>(pool.size()));
      victims.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<long>(pick));
    }
    std::sort(victims.begin(), victims.end());
  }
  const std::set<int> victim_set(victims.begin(), victims.end());

  const double local_write = static_cast<double>(c.bytes) / sc.model.local_bw;
  double kill_at = 0;
  switch (c.timing) {
    case FailureCase::Timing::kPreDrain:
      kill_at = kEpoch2At - 0.1;
      break;
    case FailureCase::Timing::kSettled:
    case FailureCase::Timing::kMidRebuild:
    case FailureCase::Timing::kMidScrub:
    case FailureCase::Timing::kSpareSwap:
    case FailureCase::Timing::kMidDeltaChain:
      kill_at = kEpoch2At + local_write + 1.5;
      break;
    case FailureCase::Timing::kMidDrain:
      // The async chain starts when the LOCAL write completes; the kill
      // lands while epoch 2's fragment placements are on the wire.
      kill_at = kEpoch2At + local_write + 0.005;
      break;
  }
  const double check_at = kill_at + (c.bytes >= kBigBytes ? 1.0 : 0.3);
  const double reprotect_check_at = check_at + 1.0;

  // ---- writes ------------------------------------------------------------
  // Straggler skew: odd nodes cut epoch 2 late, so the wave's placements
  // straggle across the kill instead of moving in lockstep.
  auto skew_of = [&](int r) {
    return c.hostile == FailureCase::Hostile::kStragglerSkew && (r % 2) != 0
               ? 0.15
               : 0.0;
  };
  // Mid-rebuild (and multi-loss spare-swap) keeps one victim in reserve: it
  // dies while the earlier losses' rebuild reads are in flight (see the
  // losses block below), so its skewed write still precedes its death.
  const bool reserve_one =
      (c.timing == FailureCase::Timing::kMidRebuild ||
       c.timing == FailureCase::Timing::kSpareSwap) &&
      victims.size() > 1;
  for (int r = 0; r < c.nodes; ++r) {
    m.engine().at(kEpoch1At, [&, r] { area.write(r, 1, c.bytes); });
    m.engine().at(kEpoch2At + skew_of(r), [&, r] {
      // Pre-drain victims died before epoch 2 was cut; a dead rank must not
      // write (a write would also mark its node back in service). The same
      // holds for a straggler victim whose skewed write would land after
      // its own first-wave death.
      if (c.timing == FailureCase::Timing::kPreDrain && victim_set.count(r))
        return;
      if (victim_set.count(r) && kEpoch2At + skew_of(r) >= kill_at &&
          !(reserve_one && r == victims.back()))
        return;
      // Delta-chain bucket: epoch 2 is staged as a delta anchored on the
      // epoch-1 full capture, so its recoverability spans both elements.
      const uint64_t chain_base =
          c.timing == FailureCase::Timing::kMidDeltaChain ? 1 : 2;
      area.write(r, 2, c.bytes, ckpt::LevelPlan{}, chain_base);
    });
  }

  // ---- losses ------------------------------------------------------------
  const size_t first_wave =
      reserve_one ? victims.size() - 1 : victims.size();
  // Permanent loss: the victim's current physical node is invalidated (its
  // staged state is gone for good) AND retired from the machine, so the
  // resident rank rebinds onto a pooled spare or packs onto a survivor.
  auto retire = [&](int v) {
    const int old = m.node_of(v);
    area.invalidate_node(old);
    m.retire_node(old);
    if (m.node_of(v) == old)
      run.fail("retire_node left rank " + std::to_string(v) +
               " bound to the dead node");
    if (!m.node_retired(old)) run.fail("retired node still in service");
  };
  if (c.timing == FailureCase::Timing::kSpareSwap) {
    m.engine().at(kill_at, [&] {
      for (size_t i = 0; i < first_wave; ++i) retire(victims[i]);
      // Each retire_node call on a live node bumps exactly one counter:
      // hot-swap while the pool lasts, shrunk restart after.
      const uint64_t want_swaps =
          std::min<uint64_t>(first_wave, static_cast<uint64_t>(c.spares));
      if (m.spare_swaps() != want_swaps)
        run.fail("spare-swap count " + std::to_string(m.spare_swaps()) +
                 " != expected " + std::to_string(want_swaps));
      if (m.shrink_restarts() != first_wave - want_swaps)
        run.fail("shrink-restart count " + std::to_string(m.shrink_restarts()) +
                 " != expected " + std::to_string(first_wave - want_swaps));
    });
  } else if (c.timing != FailureCase::Timing::kMidScrub) {
    m.engine().at(kill_at, [&] {
      for (size_t i = 0; i < first_wave; ++i) area.invalidate_node(victims[i]);
    });
  }

  // Invariant 6 (distance): a rebuild plan is a claim that the group's
  // surviving symbols determine the snapshot, which an RS(k, m) code can
  // back only while at most m members have unknown epoch-e data (the owner
  // counts). Checked wherever a liveness claim is audited.
  auto check_distance = [&](int v, uint64_t e) {
    if (area.plan_restore(v, e).source != ckpt::RestorePlan::Source::kRebuild)
      return;
    std::vector<int> group = area.scheme().group_of(v);
    group.push_back(v);
    int unknown = 0;
    for (int g : group)
      if (g == v || !area.has_local(g, e) ||
          !area.node_in_service(m.node_of(g)))
        ++unknown;
    if (unknown > c.redundancy.rs_m)
      run.fail("rebuild claimed beyond the code's distance (rank " +
               std::to_string(v) + " epoch " + std::to_string(e) + ", " +
               std::to_string(unknown) + " members unknown, m = " +
               std::to_string(c.redundancy.rs_m) + ")");
  };

  // ---- silent losses (mid-scrub timing) ----------------------------------
  // No node dies; `losses` staged fragments silently rot in place. A scrub
  // wave then runs, and the checks assert it found every one, repaired it
  // while the PFS lagged, and that the scheme's liveness claims match the
  // oracle's actual derivability afterwards.
  if (c.timing == FailureCase::Timing::kMidScrub) {
    std::vector<uint64_t> salts;
    for (int i = 0; i < c.losses; ++i) salts.push_back(rng.next_u64());
    auto injected = std::make_shared<uint64_t>(0);
    m.engine().at(kill_at, [&, salts, injected] {
      // Fewer candidates than losses (e.g. the SINGLE scheme places no
      // fragments at all) just shrinks the injection; `injected` carries the
      // real count into the assertions.
      for (uint64_t s : salts)
        if (area.corrupt_one_fragment(s)) ++*injected;
    });
    m.engine().at(kill_at + 0.2, [&] { area.run_scrub_wave(); });
    m.engine().at(kill_at + 1.0, [&, injected] {
      const ckpt::StagingStats st = area.stats();
      if (st.silent_losses_injected != *injected)
        run.fail("silent-loss injection count mismatch");
      if (st.scrubs_detected != *injected)
        run.fail("scrub wave missed silent losses (" +
                 std::to_string(st.scrubs_detected) + " detected of " +
                 std::to_string(*injected) + ")");
      if (area.corrupt_live_fragments() != 0)
        run.fail("corrupt fragments still believed live after the scrub");
      if (!c.flush_pfs && st.scrubs_repaired != *injected)
        run.fail("scrub left detected losses unrepaired while the PFS "
                 "lagged (" +
                 std::to_string(st.scrubs_repaired) + " repaired of " +
                 std::to_string(*injected) + ")");
      // Oracle as arbiter: after detection + repair, every liveness claim
      // must be backed by an actual reconstruction of the payload bytes.
      for (int r = 0; r < c.nodes; ++r) {
        for (uint64_t e = 1; e <= 2; ++e) {
          check_distance(r, e);
          if (area.scheme().recoverable_without_pfs(r, e, area) &&
              !oracle_recoverable(area, c.redundancy, c.nodes, r, e)) {
            run.fail("post-scrub liveness claim the oracle refutes (rank " +
                     std::to_string(r) + " epoch " + std::to_string(e) + ")");
          }
        }
      }
    });
  }

  // ---- delta-chain checks (mid-delta-chain timing) -----------------------
  // Epoch 2 is a delta head anchored on epoch 1; its restore must walk both
  // elements. Asserts the chain shape, chain-aware recoverability (a head
  // never claims liveness past a lost base), no false success when the
  // chain is exhausted, and that the epoch-1 fallback target still restores
  // on its own whenever its elements survive.
  auto outstanding = std::make_shared<int>(0);
  if (c.timing == FailureCase::Timing::kMidDeltaChain) {
    m.engine().at(check_at, [&, outstanding] {
      for (size_t i = 0; i < first_wave; ++i) {
        const int v = victims[i];
        const std::vector<uint64_t> chain = area.restore_chain(v, 2);
        if (chain.size() != 2 || chain.front() != 1 || chain.back() != 2)
          run.fail("delta head's restore chain is not [1, 2] (rank " +
                   std::to_string(v) + ")");
        const bool head_ok = area.recoverable(v, 2);
        const bool base_ok = area.recoverable(v, 1);
        check_distance(v, 1);
        check_distance(v, 2);
        if (head_ok && !base_ok)
          run.fail("chain head claims recoverability past a lost base (rank " +
                   std::to_string(v) + ")");
        ++*outstanding;
        area.execute_restore(
            {v}, 2, [&, v, head_ok, base_ok, outstanding](bool ok) {
              --*outstanding;
              if (ok && !head_ok)
                run.fail("exhausted-chain restore reported success — "
                         "invented data (rank " +
                         std::to_string(v) + ")");
              if (!ok && head_ok)
                run.fail("chain restore failed although every element was "
                         "recoverable (rank " +
                         std::to_string(v) + ")");
              if (ok && area.scheme().recoverable_without_pfs(v, 2, area) &&
                  !area.has_local(v, 2)) {
                // Checksum identity through the reduction pipeline: the
                // rebuilt wire blob must decode (delta scatter over the
                // epoch-1 base) to the exact logical payload.
                std::vector<uint8_t> rebuilt;
                if (!shadow.reconstruct(v, 2, &rebuilt)) {
                  run.fail("shadow codec cannot decode a chain head the "
                           "scheme claims (rank " +
                           std::to_string(v) + ")");
                } else if (checksum(rebuilt) !=
                           shadow.original_checksum(v, 2)) {
                  run.fail("decoded chain head differs from the original "
                           "logical payload (rank " +
                           std::to_string(v) + ")");
                }
              }
              if (!ok && base_ok) {
                // Exhausted chain: the caller falls back one epoch; the
                // base must then restore as its own (length-1) chain.
                ++*outstanding;
                area.execute_restore({v}, 1, [&, v, outstanding](bool ok1) {
                  --*outstanding;
                  if (!ok1)
                    run.fail("epoch-1 fallback restore failed although "
                             "epoch 1 was recoverable (rank " +
                             std::to_string(v) + ")");
                });
              }
            });
      }
    });
  }

  // ---- invariant checks --------------------------------------------------
  // (Mid-scrub and mid-delta-chain cases run their own checks above.)
  if (c.timing != FailureCase::Timing::kMidScrub &&
      c.timing != FailureCase::Timing::kMidDeltaChain)
  m.engine().at(check_at, [&, outstanding] {
    const uint64_t probe_epoch =
        c.timing == FailureCase::Timing::kPreDrain ? 1 : 2;
    for (size_t i = 0; i < first_wave; ++i) {
      const int v = victims[i];
      for (uint64_t e = 1; e <= probe_epoch; ++e) {
        const bool live =
            area.scheme().recoverable_without_pfs(v, e, area);
        ckpt::RestorePlan plan = area.plan_restore(v, e);
        check_distance(v, e);
        // Invariant 1: plan consistency with the liveness predicate.
        if (live && (plan.source == ckpt::RestorePlan::Source::kPfs ||
                     plan.source == ckpt::RestorePlan::Source::kNone)) {
          run.fail("liveness=true but the plan reads the PFS or nothing (rank " +
                   std::to_string(v) + " epoch " + std::to_string(e) + ")");
        }
        if (!live && (plan.source == ckpt::RestorePlan::Source::kLocal ||
                      plan.source == ckpt::RestorePlan::Source::kRemoteCopy ||
                      plan.source == ckpt::RestorePlan::Source::kRebuild)) {
          run.fail("liveness=false but the plan claims a redundancy source (rank " +
                   std::to_string(v) + " epoch " + std::to_string(e) + ")");
        }
        // Invariant 2 (settled cases, and permanent losses — the rebind to a
        // spare/survivor must not cost recoverability): within the scheme's
        // advertised distance the victim MUST be recoverable without the PFS.
        if (c.timing == FailureCase::Timing::kSettled ||
            c.timing == FailureCase::Timing::kSpareSwap) {
          std::vector<int> group = area.scheme().group_of(v);
          group.push_back(v);
          int in_group_dead = 0;
          for (int g : group)
            if (victim_set.count(g)) ++in_group_dead;
          bool guaranteed = false;
          switch (c.redundancy.kind) {
            case ckpt::SchemeKind::kSingle:
              guaranteed = false;
              break;
            case ckpt::SchemeKind::kPartner: {
              const std::vector<int> buddies = area.scheme().group_of(v);
              guaranteed =
                  !buddies.empty() && !victim_set.count(buddies.front());
              break;
            }
            case ckpt::SchemeKind::kReedSolomon: {
              // The round-robin deal can produce a group smaller than k+m
              // (e.g. 7 nodes at k+m=6 split 4/3); each member can then
              // place only group-1 distinct shares, and that is the
              // group's real distance.
              const int placeable =
                  std::min(c.redundancy.rs_m,
                           static_cast<int>(group.size()) - 1);
              guaranteed = in_group_dead <= placeable;
              break;
            }
          }
          if (guaranteed && !live) {
            run.fail("in-tolerance loss not recoverable without the PFS (rank " +
                     std::to_string(v) + " epoch " + std::to_string(e) +
                     ", in-group dead " + std::to_string(in_group_dead) + ")");
          }
          if (c.redundancy.kind == ckpt::SchemeKind::kSingle && live) {
            run.fail("single scheme claims liveness with LOCAL dead (rank " +
                     std::to_string(v) + ")");
          }
        }
        // Invariants 3 + 4: execute the restore and audit the outcome. The
        // PFS-restore counter is machine-global, so the "no PFS touch"
        // audit is only meaningful when this is the sole restore in
        // flight; concurrent victims are covered by the plan-consistency
        // check above.
        const bool sole_probe = first_wave == 1 && probe_epoch == 1;
        const bool had_pfs = area.has_pfs(v, e);
        const uint64_t pfs_before = area.stats().restores_by_level[2];
        ++*outstanding;
        area.execute_restore({v}, e, [&, v, e, live, had_pfs, pfs_before,
                                    sole_probe, outstanding](bool ok) {
          --*outstanding;
          const uint64_t pfs_after = area.stats().restores_by_level[2];
          const bool later_loss_possible =
              c.timing == FailureCase::Timing::kMidRebuild ||
              (c.timing == FailureCase::Timing::kSpareSwap && reserve_one);
          if (!ok && live && !later_loss_possible) {
            run.fail("restore failed although liveness held and no later "
                     "loss intervened (rank " +
                     std::to_string(v) + " epoch " + std::to_string(e) + ")");
          }
          if (!ok && had_pfs) {
            run.fail("restore failed with a PFS copy present (rank " +
                     std::to_string(v) + " epoch " + std::to_string(e) + ")");
          }
          if (ok && live && sole_probe &&
              c.timing != FailureCase::Timing::kMidRebuild &&
              pfs_after != pfs_before) {
            run.fail("restore touched the PFS although the redundancy layer "
                     "claimed the epoch (rank " +
                     std::to_string(v) + " epoch " + std::to_string(e) + ")");
          }
          // Invariant: checksum identity. Whenever the scheme still claims
          // the epoch at completion time, the shadow codec must reproduce
          // the exact original bytes from the surviving residency.
          if (ok && area.scheme().recoverable_without_pfs(v, e, area) &&
              !area.has_local(v, e)) {
            std::vector<uint8_t> rebuilt;
            if (!shadow.reconstruct(v, e, &rebuilt)) {
              run.fail("shadow codec cannot decode an epoch the scheme "
                       "claims (rank " +
                       std::to_string(v) + " epoch " + std::to_string(e) + ")");
            } else if (checksum(rebuilt) != shadow.original_checksum(v, e)) {
              run.fail("restored bytes differ from the original snapshot "
                       "(rank " +
                       std::to_string(v) + " epoch " + std::to_string(e) + ")");
            }
          }
        });
      }
    }
  });

  // Mid-rebuild: the reserved victim (a surviving group member, i.e. a
  // rebuild source) dies while the reads above are on the wire. Under
  // spare-swap timing the reserved loss is itself permanent — a node dying
  // while an earlier victim's spare rebuild is still in flight.
  if (reserve_one) {
    m.engine().at(check_at + 0.01, [&] {
      if (c.timing == FailureCase::Timing::kSpareSwap)
        retire(victims.back());
      else
        area.invalidate_node(victims.back());
    });
  }

  // Invariant 5 (settled, lagging PFS): owners that survived but lost a
  // fragment host must have been re-protected back to full liveness.
  if (c.timing == FailureCase::Timing::kSettled && !c.flush_pfs) {
    m.engine().at(reprotect_check_at, [&] {
      for (int r = 0; r < c.nodes; ++r) {
        if (victim_set.count(r)) continue;
        // Re-protection needs somewhere to put the fragments: enough
        // in-service hosts beside the owner.
        std::vector<int> group = area.scheme().group_of(r);
        int alive_hosts = 0;
        for (int g : group)
          if (!victim_set.count(g)) ++alive_hosts;
        int needed = 0;
        switch (c.redundancy.kind) {
          case ckpt::SchemeKind::kSingle:
            needed = 0;
            break;
          case ckpt::SchemeKind::kPartner:
            // The buddy mapping is fixed: a dead buddy cannot be replaced.
            needed = (alive_hosts == static_cast<int>(group.size())) ? 1 : -1;
            break;
          case ckpt::SchemeKind::kReedSolomon:
            needed = c.redundancy.rs_m;
            break;
        }
        if (needed <= 0 || alive_hosts < needed) continue;
        for (uint64_t e = 1; e <= 2; ++e) {
          if (!area.has_local(r, e)) continue;
          if (!area.scheme().recoverable_without_pfs(r, e, area))
            run.fail("survivor lost liveness despite re-protection (rank " +
                     std::to_string(r) + " epoch " + std::to_string(e) + ")");
          // Full protection: were the owner's node to die *now*, the scheme
          // must still claim the epoch — probe by counting live fragments.
          const std::vector<ckpt::Fragment>* frags = area.fragments(r, e);
          int live_frags = 0;
          if (frags != nullptr)
            for (const ckpt::Fragment& f : *frags)
              if (f.live && area.node_in_service(f.host_node)) ++live_frags;
          if (live_frags < needed)
            run.fail("re-protection left fragments missing (rank " +
                     std::to_string(r) + " epoch " + std::to_string(e) +
                     ": " + std::to_string(live_frags) + " live, need " +
                     std::to_string(needed) + ")");
        }
      }
    });
  }

  mpi::RunResult rr = m.run();
  if (!rr.completed) run.fail("case run did not complete");
  if (*outstanding != 0)
    run.fail("execute_restore never completed for " +
             std::to_string(*outstanding) + " victims");
  return run.result;
}

}  // namespace spbc::testing
