#include "clustering/refine.hpp"

#include <algorithm>
#include <queue>

#include "util/assert.hpp"

namespace spbc::clustering {

namespace {

constexpr int kMaxRounds = 20;

/// The kMinTotalLogged state: units per cluster, per-unit per-cluster
/// boundary weights conn[u][c] (the classic FM gain table) and the cut they
/// sum to. Moving unit u from A to B changes the cut by
/// conn[u][A] - conn[u][B].
class BoundaryTable {
 public:
  BoundaryTable(const GroupGraph& units, const std::vector<int>& unit_cluster,
                int k)
      : units_(units), k_(k) {
    csize_.assign(static_cast<size_t>(k), 0);
    for (int u = 0; u < units.n; ++u)
      ++csize_[static_cast<size_t>(unit_cluster[static_cast<size_t>(u)])];
    conn_.assign(static_cast<size_t>(units.n) * static_cast<size_t>(k), 0);
    for (int u = 0; u < units.n; ++u) {
      const int cu = unit_cluster[static_cast<size_t>(u)];
      for (size_t i = units.begin(u); i < units.end(u); ++i) {
        const int v = units.adj[i];
        const int cv = unit_cluster[static_cast<size_t>(v)];
        conn_[idx(u, cv)] += units.w[i];
        if (v > u && cv != cu) cut_ += units.w[i];
      }
    }
  }

  uint64_t cut() const { return cut_; }
  int csize(int c) const { return csize_[static_cast<size_t>(c)]; }

  uint64_t cut_after(int u, int from, int to) const {
    return static_cast<uint64_t>(static_cast<int64_t>(cut_) +
                                 static_cast<int64_t>(conn_[idx(u, from)]) -
                                 static_cast<int64_t>(conn_[idx(u, to)]));
  }

  /// Applies the move in O(degree(u)); the caller updates its unit map.
  void move(int u, int from, int to) {
    cut_ = cut_after(u, from, to);
    for (size_t i = units_.begin(u); i < units_.end(u); ++i) {
      const int v = units_.adj[i];
      SPBC_ASSERT(conn_[idx(v, from)] >= units_.w[i]);
      conn_[idx(v, from)] -= units_.w[i];
      conn_[idx(v, to)] += units_.w[i];
    }
    --csize_[static_cast<size_t>(from)];
    ++csize_[static_cast<size_t>(to)];
  }

 private:
  size_t idx(int u, int c) const {
    return static_cast<size_t>(u) * static_cast<size_t>(k_) +
           static_cast<size_t>(c);
  }

  const GroupGraph& units_;
  int k_;
  std::vector<int> csize_;
  std::vector<uint64_t> conn_;  // units.n x k
  uint64_t cut_ = 0;
};

struct MaxEntry {
  uint64_t val = 0;
  int rank = 0;
  uint32_t stamp = 0;
};
struct MaxLower {
  bool operator()(const MaxEntry& x, const MaxEntry& y) const {
    return x.val < y.val;
  }
};

class Refiner {
 public:
  Refiner(const CommGraph& graph, const GroupGraph& units,
          const std::vector<int>& unit_of_rank, const RefineParams& params,
          std::vector<int>& unit_cluster)
      : graph_(graph),
        units_(units),
        unit_of_rank_(unit_of_rank),
        p_(params),
        cluster_(unit_cluster),
        table_(units, unit_cluster, params.k) {
    if (p_.objective == Objective::kBalancedLogged) init_balanced();
  }

  void run() {
    double current = objective_now();
    bool improved = true;
    int rounds = 0;
    while (improved && rounds < kMaxRounds) {
      improved = false;
      ++rounds;
      for (int u = 0; u < units_.n; ++u) {
        const int from = cluster_[static_cast<size_t>(u)];
        if (table_.csize(from) <= 1) continue;
        int best_to = -1;
        double best_val = current;
        for (int to = 0; to < p_.k; ++to) {
          if (to == from) continue;
          if (table_.csize(to) >= p_.node_cap) continue;
          const double val = evaluate(u, from, to);
          if (val < best_val) {
            best_val = val;
            best_to = to;
          }
        }
        if (best_to >= 0) {
          apply(u, from, best_to);
          current = best_val;
          improved = true;
          if (p_.validate_deltas) validate(current);
        }
      }
    }
  }

 private:
  size_t ridx(int r, int c) const {
    return static_cast<size_t>(r) * static_cast<size_t>(p_.k) +
           static_cast<size_t>(c);
  }

  void init_balanced() {
    const int n = graph_.nranks();
    // Rank lists per unit (counting sort keeps rank order within a unit).
    unit_rank_ptr_.assign(static_cast<size_t>(units_.n) + 1, 0);
    for (int r = 0; r < n; ++r)
      ++unit_rank_ptr_[static_cast<size_t>(unit_of_rank_[static_cast<size_t>(r)]) + 1];
    for (int u = 0; u < units_.n; ++u)
      unit_rank_ptr_[static_cast<size_t>(u) + 1] +=
          unit_rank_ptr_[static_cast<size_t>(u)];
    unit_ranks_.assign(static_cast<size_t>(n), 0);
    {
      std::vector<size_t> cursor(unit_rank_ptr_.begin(), unit_rank_ptr_.end() - 1);
      for (int r = 0; r < n; ++r)
        unit_ranks_[cursor[static_cast<size_t>(
            unit_of_rank_[static_cast<size_t>(r)])]++] = r;
    }

    // Senders into each unit: (unit(dst) -> sorted (rank, bytes)), members
    // included (their entry is the rank's intra-unit outbound — the traffic
    // that travels with the unit when it moves).
    struct Sender {
      int unit;
      int rank;
      uint64_t bytes;
    };
    std::vector<Sender> senders;
    senders.reserve(graph_.nedges() * 2);
    for (int r = 0; r < n; ++r) {
      for (const CommGraph::Edge* e = graph_.neighbors_begin(r);
           e != graph_.neighbors_end(r); ++e) {
        if (e->out == 0) continue;
        senders.push_back(
            Sender{unit_of_rank_[static_cast<size_t>(e->to)], r, e->out});
      }
    }
    std::sort(senders.begin(), senders.end(), [](const Sender& x, const Sender& y) {
      return x.unit != y.unit ? x.unit < y.unit : x.rank < y.rank;
    });
    in_ptr_.assign(static_cast<size_t>(units_.n) + 1, 0);
    in_rank_.clear();
    in_bytes_.clear();
    for (size_t i = 0; i < senders.size();) {
      size_t j = i + 1;
      uint64_t bytes = senders[i].bytes;
      while (j < senders.size() && senders[j].unit == senders[i].unit &&
             senders[j].rank == senders[i].rank) {
        bytes += senders[j].bytes;
        ++j;
      }
      in_rank_.push_back(senders[i].rank);
      in_bytes_.push_back(bytes);
      ++in_ptr_[static_cast<size_t>(senders[i].unit) + 1];
      i = j;
    }
    for (int u = 0; u < units_.n; ++u)
      in_ptr_[static_cast<size_t>(u) + 1] += in_ptr_[static_cast<size_t>(u)];

    // Per-rank per-cluster outbound, intra-unit outbound, and logged bytes.
    out2c_.assign(static_cast<size_t>(n) * static_cast<size_t>(p_.k), 0);
    selfb_.assign(static_cast<size_t>(n), 0);
    logged_.assign(static_cast<size_t>(n), 0);
    stamp_.assign(static_cast<size_t>(n), 0);
    mark_.assign(static_cast<size_t>(n), 0);
    for (int r = 0; r < n; ++r) {
      const int ur = unit_of_rank_[static_cast<size_t>(r)];
      for (const CommGraph::Edge* e = graph_.neighbors_begin(r);
           e != graph_.neighbors_end(r); ++e) {
        if (e->out == 0) continue;
        const int ud = unit_of_rank_[static_cast<size_t>(e->to)];
        out2c_[ridx(r, cluster_[static_cast<size_t>(ud)])] += e->out;
        if (ud == ur) selfb_[static_cast<size_t>(r)] += e->out;
      }
      logged_[static_cast<size_t>(r)] =
          graph_.out_bytes(r) -
          out2c_[ridx(r, cluster_[static_cast<size_t>(ur)])];
      heap_.push(MaxEntry{logged_[static_cast<size_t>(r)], r, 0});
    }
  }

  double objective_now() {
    if (p_.objective == Objective::kMinTotalLogged)
      return static_cast<double>(table_.cut());
    uint64_t mx = 0;
    for (uint64_t v : logged_) mx = std::max(mx, v);
    return static_cast<double>(mx) + 1e-9 * static_cast<double>(table_.cut());
  }

  double evaluate(int u, int from, int to) {
    const uint64_t new_cut = table_.cut_after(u, from, to);
    if (p_.objective == Objective::kMinTotalLogged)
      return static_cast<double>(new_cut);

    // Balanced: hypothetical per-rank logged values of the affected ranks.
    ++mark_epoch_;
    uint64_t max_affected = 0;
    auto consider = [&](int r, uint64_t v) {
      mark_[static_cast<size_t>(r)] = mark_epoch_;
      max_affected = std::max(max_affected, v);
    };
    for (size_t i = unit_rank_ptr_[static_cast<size_t>(u)];
         i < unit_rank_ptr_[static_cast<size_t>(u) + 1]; ++i) {
      const int r = unit_ranks_[i];
      consider(r, graph_.out_bytes(r) - out2c_[ridx(r, to)] -
                      selfb_[static_cast<size_t>(r)]);
    }
    for (size_t i = in_ptr_[static_cast<size_t>(u)];
         i < in_ptr_[static_cast<size_t>(u) + 1]; ++i) {
      const int r = in_rank_[i];
      if (unit_of_rank_[static_cast<size_t>(r)] == u) continue;  // member
      const int cr =
          cluster_[static_cast<size_t>(unit_of_rank_[static_cast<size_t>(r)])];
      if (cr == from)
        consider(r, logged_[static_cast<size_t>(r)] + in_bytes_[i]);
      else if (cr == to)
        consider(r, logged_[static_cast<size_t>(r)] - in_bytes_[i]);
    }

    // Maximum over the untouched ranks from the lazy heap: discard stale
    // entries, park fresh-but-affected ones, take the first fresh untouched.
    uint64_t max_rest = 0;
    while (!heap_.empty()) {
      const MaxEntry e = heap_.top();
      if (e.stamp != stamp_[static_cast<size_t>(e.rank)]) {
        heap_.pop();
        continue;
      }
      if (mark_[static_cast<size_t>(e.rank)] == mark_epoch_) {
        parked_.push_back(e);
        heap_.pop();
        continue;
      }
      max_rest = e.val;
      break;
    }
    for (const MaxEntry& e : parked_) heap_.push(e);
    parked_.clear();

    const uint64_t new_max = std::max(max_affected, max_rest);
    return static_cast<double>(new_max) + 1e-9 * static_cast<double>(new_cut);
  }

  void apply(int u, int from, int to) {
    table_.move(u, from, to);
    cluster_[static_cast<size_t>(u)] = to;
    if (p_.objective != Objective::kBalancedLogged) return;

    auto bump = [&](int r, uint64_t v) {
      logged_[static_cast<size_t>(r)] = v;
      ++stamp_[static_cast<size_t>(r)];
      heap_.push(MaxEntry{v, r, stamp_[static_cast<size_t>(r)]});
    };
    for (size_t i = in_ptr_[static_cast<size_t>(u)];
         i < in_ptr_[static_cast<size_t>(u) + 1]; ++i) {
      const int r = in_rank_[i];
      SPBC_ASSERT(out2c_[ridx(r, from)] >= in_bytes_[i]);
      out2c_[ridx(r, from)] -= in_bytes_[i];
      out2c_[ridx(r, to)] += in_bytes_[i];
      if (unit_of_rank_[static_cast<size_t>(r)] == u) continue;  // member
      const int cr =
          cluster_[static_cast<size_t>(unit_of_rank_[static_cast<size_t>(r)])];
      if (cr == from)
        bump(r, logged_[static_cast<size_t>(r)] + in_bytes_[i]);
      else if (cr == to)
        bump(r, logged_[static_cast<size_t>(r)] - in_bytes_[i]);
    }
    for (size_t i = unit_rank_ptr_[static_cast<size_t>(u)];
         i < unit_rank_ptr_[static_cast<size_t>(u) + 1]; ++i) {
      const int r = unit_ranks_[i];
      bump(r, graph_.out_bytes(r) - out2c_[ridx(r, to)]);
    }
  }

  /// Debug cross-check: the incremental state must equal a from-scratch
  /// recompute after every applied move.
  void validate(double current) {
    std::vector<int> cluster_of(static_cast<size_t>(graph_.nranks()));
    for (int r = 0; r < graph_.nranks(); ++r)
      cluster_of[static_cast<size_t>(r)] = cluster_[static_cast<size_t>(
          unit_of_rank_[static_cast<size_t>(r)])];
    const uint64_t cut = graph_.logged_bytes(cluster_of);
    SPBC_ASSERT_MSG(cut == table_.cut(),
                    "delta cut " << table_.cut() << " != recomputed " << cut);
    if (p_.objective == Objective::kMinTotalLogged) {
      SPBC_ASSERT_MSG(current == static_cast<double>(cut),
                      "objective drifted from recompute");
      return;
    }
    const std::vector<uint64_t> per_rank = graph_.logged_bytes_per_rank(cluster_of);
    uint64_t mx = 0;
    for (int r = 0; r < graph_.nranks(); ++r) {
      SPBC_ASSERT_MSG(per_rank[static_cast<size_t>(r)] ==
                          logged_[static_cast<size_t>(r)],
                      "delta logged[" << r << "] "
                                      << logged_[static_cast<size_t>(r)]
                                      << " != recomputed "
                                      << per_rank[static_cast<size_t>(r)]);
      mx = std::max(mx, per_rank[static_cast<size_t>(r)]);
    }
    const double val =
        static_cast<double>(mx) + 1e-9 * static_cast<double>(cut);
    SPBC_ASSERT_MSG(current == val, "balanced objective drifted from recompute");
  }

  const CommGraph& graph_;
  const GroupGraph& units_;
  const std::vector<int>& unit_of_rank_;
  const RefineParams& p_;
  std::vector<int>& cluster_;

  BoundaryTable table_;

  // Balanced-objective state.
  std::vector<size_t> unit_rank_ptr_;
  std::vector<int> unit_ranks_;
  std::vector<size_t> in_ptr_;  // senders into each unit
  std::vector<int> in_rank_;
  std::vector<uint64_t> in_bytes_;
  std::vector<uint64_t> out2c_;  // nranks x k
  std::vector<uint64_t> selfb_;  // intra-unit outbound per rank
  std::vector<uint64_t> logged_;
  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> mark_;
  uint32_t mark_epoch_ = 0;
  std::priority_queue<MaxEntry, std::vector<MaxEntry>, MaxLower> heap_;
  std::vector<MaxEntry> parked_;
};

}  // namespace

void refine_partition(const CommGraph& graph, const GroupGraph& units,
                      const std::vector<int>& unit_of_rank,
                      const RefineParams& params,
                      std::vector<int>& unit_cluster) {
  SPBC_ASSERT(params.k >= 1 && params.node_cap > 0);
  SPBC_ASSERT(static_cast<int>(unit_cluster.size()) == units.n);
  if (params.k == 1 || units.n <= 1) return;
  Refiner r(graph, units, unit_of_rank, params, unit_cluster);
  r.run();
}

std::optional<UnitMove> best_unit_move(const GroupGraph& units, int k,
                                       const std::vector<int>& unit_cluster) {
  SPBC_ASSERT(static_cast<int>(unit_cluster.size()) == units.n);
  const BoundaryTable table(units, unit_cluster, k);
  std::optional<UnitMove> best;
  uint64_t best_cut = table.cut();  // only strictly cut-reducing moves
  for (int u = 0; u < units.n; ++u) {
    const int from = unit_cluster[static_cast<size_t>(u)];
    if (table.csize(from) <= 1) continue;  // would empty its cluster
    for (int to = 0; to < k; ++to) {
      if (to == from) continue;
      const uint64_t cut = table.cut_after(u, from, to);
      if (cut < best_cut) {
        best_cut = cut;
        best = UnitMove{u, from, to};
      }
    }
  }
  return best;
}

}  // namespace spbc::clustering
