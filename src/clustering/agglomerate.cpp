#include "clustering/agglomerate.hpp"

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"

namespace spbc::clustering {

namespace {

struct Candidate {
  uint64_t w = 0;
  int a = 0;  // a < b always
  int b = 0;
  uint32_t va = 0;  // endpoint versions at push time
  uint32_t vb = 0;
};

// priority_queue comparator: true when x has LOWER priority than y.
// Priority: heavier first, then smaller (a, b) — all-pairs scan order.
struct LowerPriority {
  bool operator()(const Candidate& x, const Candidate& y) const {
    if (x.w != y.w) return x.w < y.w;
    if (x.a != y.a) return x.a > y.a;
    return x.b > y.b;
  }
};

}  // namespace

std::vector<int> agglomerate(const GroupGraph& g, int k) {
  const int n = g.n;
  SPBC_ASSERT(k >= 1 && k <= n);
  int cap = (n + k - 1) / k;

  std::vector<bool> alive(static_cast<size_t>(n), true);
  std::vector<int> size(static_cast<size_t>(n), 1);
  std::vector<uint32_t> ver(static_cast<size_t>(n), 0);
  // Units absorbed into each live cluster (small-to-large appends).
  std::vector<std::vector<int>> members(static_cast<size_t>(n));
  // Current inter-cluster weights, per cluster: neighbor id -> weight.
  std::vector<std::unordered_map<int, uint64_t>> nbr(static_cast<size_t>(n));
  std::priority_queue<Candidate, std::vector<Candidate>, LowerPriority> heap;
  std::vector<Candidate> deferred;  // fresh but cap-blocked candidates

  for (int u = 0; u < n; ++u) {
    members[static_cast<size_t>(u)].push_back(u);
    for (size_t i = g.begin(u); i < g.end(u); ++i) {
      const int v = g.adj[i];
      nbr[static_cast<size_t>(u)][v] = g.w[i];
      if (u < v) heap.push(Candidate{g.w[i], u, v, 0, 0});
    }
  }

  int ncomp = n;
  auto merge = [&](int a, int b) {
    // Merge b into a (a < b), keeping id a.
    SPBC_ASSERT(a < b && alive[static_cast<size_t>(a)] &&
                alive[static_cast<size_t>(b)]);
    alive[static_cast<size_t>(b)] = false;
    size[static_cast<size_t>(a)] += size[static_cast<size_t>(b)];
    ++ver[static_cast<size_t>(a)];
    ++ver[static_cast<size_t>(b)];
    auto& ma = members[static_cast<size_t>(a)];
    auto& mb = members[static_cast<size_t>(b)];
    if (ma.size() < mb.size()) ma.swap(mb);
    ma.insert(ma.end(), mb.begin(), mb.end());
    mb.clear();
    mb.shrink_to_fit();
    auto& na = nbr[static_cast<size_t>(a)];
    na.erase(b);
    for (const auto& [c, wc] : nbr[static_cast<size_t>(b)]) {
      if (c == a) continue;
      na[c] += wc;
    }
    nbr[static_cast<size_t>(b)].clear();
    for (const auto& [c, wc] : na) {
      auto& nc = nbr[static_cast<size_t>(c)];
      nc.erase(b);
      nc[a] = wc;
      const int lo = a < c ? a : c;
      const int hi = a < c ? c : a;
      heap.push(Candidate{wc, lo, hi, ver[static_cast<size_t>(lo)],
                          ver[static_cast<size_t>(hi)]});
    }
    --ncomp;
  };

  auto fresh = [&](const Candidate& c) {
    return alive[static_cast<size_t>(c.a)] && alive[static_cast<size_t>(c.b)] &&
           c.va == ver[static_cast<size_t>(c.a)] &&
           c.vb == ver[static_cast<size_t>(c.b)];
  };

  while (ncomp > k) {
    // Next fresh, cap-allowed candidate off the heap.
    bool merged = false;
    while (!heap.empty()) {
      Candidate c = heap.top();
      heap.pop();
      if (!fresh(c)) continue;
      if (size[static_cast<size_t>(c.a)] + size[static_cast<size_t>(c.b)] > cap) {
        // Blocked pairs stay blocked until an endpoint merges (version bump)
        // or the cap relaxes — park them instead of re-discovering.
        deferred.push_back(c);
        continue;
      }
      merge(c.a, c.b);
      merged = true;
      break;
    }
    if (merged) continue;

    // Every positive-weight pair is cap-blocked: merge the scan-order-first
    // zero-weight pair that fits.
    int za = -1, zb = -1;
    for (int a = 0; a < n && za < 0; ++a) {
      if (!alive[static_cast<size_t>(a)]) continue;
      for (int b = a + 1; b < n; ++b) {
        if (!alive[static_cast<size_t>(b)]) continue;
        if (size[static_cast<size_t>(a)] + size[static_cast<size_t>(b)] > cap)
          continue;
        if (nbr[static_cast<size_t>(a)].count(b)) continue;  // positive => blocked
        za = a;
        zb = b;
        break;
      }
    }
    if (za >= 0) {
      merge(za, zb);
      continue;
    }
    // Nothing fits: the cap is too tight for the remaining components (k not
    // dividing the unit count). Relax by one unit and retry the parked pairs.
    ++cap;
    for (const Candidate& c : deferred)
      if (fresh(c)) heap.push(c);
    deferred.clear();
  }

  // Renumber surviving clusters to [0, k) in first-member order.
  std::vector<int> comp(static_cast<size_t>(n), -1);
  for (int c = 0; c < n; ++c) {
    if (!alive[static_cast<size_t>(c)]) continue;
    for (int u : members[static_cast<size_t>(c)]) comp[static_cast<size_t>(u)] = c;
  }
  std::vector<int> remap(static_cast<size_t>(n), -1);
  std::vector<int> cluster(static_cast<size_t>(n));
  int next = 0;
  for (int u = 0; u < n; ++u) {
    const int c = comp[static_cast<size_t>(u)];
    SPBC_ASSERT(c >= 0);
    if (remap[static_cast<size_t>(c)] < 0) remap[static_cast<size_t>(c)] = next++;
    cluster[static_cast<size_t>(u)] = remap[static_cast<size_t>(c)];
  }
  SPBC_ASSERT(next == k);
  return cluster;
}

}  // namespace spbc::clustering
