#include "clustering/comm_graph.hpp"

#include <algorithm>

namespace spbc::clustering {

CommGraph::CommGraph(int nranks) : n_(nranks) { SPBC_ASSERT(nranks > 0); }

void CommGraph::add_traffic(int src, int dst, uint64_t bytes) {
  SPBC_ASSERT(src >= 0 && src < n_ && dst >= 0 && dst < n_);
  pending_.push_back(Triple{src, dst, bytes});
  total_ += bytes;
  built_ = false;
}

CommGraph CommGraph::from_traffic(int nranks, const mpi::TrafficMatrix& traffic) {
  CommGraph g(nranks);
  traffic.for_each(
      [&g](int src, int dst, uint64_t bytes) { g.add_traffic(src, dst, bytes); });
  return g;
}

void CommGraph::build() const {
  if (built_) return;
  // Normalize each directed triple onto its undirected pair (a < b), sort,
  // and merge duplicates: one pass gives sorted per-pair records carrying
  // both directed weights.
  struct Pair {
    int a;
    int b;
    uint64_t ab;  // bytes a -> b
    uint64_t ba;  // bytes b -> a
  };
  std::vector<Pair> pairs;
  pairs.reserve(pending_.size());
  self_.clear();
  for (const Triple& t : pending_) {
    if (t.src == t.dst) {  // self traffic is never logged
      self_.emplace_back(t.src, t.bytes);
      continue;
    }
    if (t.src < t.dst)
      pairs.push_back(Pair{t.src, t.dst, t.bytes, 0});
    else
      pairs.push_back(Pair{t.dst, t.src, 0, t.bytes});
  }
  std::sort(self_.begin(), self_.end());
  {
    size_t w = 0;
    for (size_t i = 0; i < self_.size();) {
      auto merged = self_[i];
      size_t j = i + 1;
      for (; j < self_.size() && self_[j].first == merged.first; ++j)
        merged.second += self_[j].second;
      self_[w++] = merged;
      i = j;
    }
    self_.resize(w);
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  size_t out = 0;
  for (size_t i = 0; i < pairs.size();) {
    Pair merged = pairs[i];
    size_t j = i + 1;
    for (; j < pairs.size() && pairs[j].a == merged.a && pairs[j].b == merged.b; ++j) {
      merged.ab += pairs[j].ab;
      merged.ba += pairs[j].ba;
    }
    pairs[out++] = merged;
    i = j;
  }
  pairs.resize(out);

  // Counting pass: each pair lands in both endpoint rows.
  row_ptr_.assign(static_cast<size_t>(n_) + 1, 0);
  for (const Pair& p : pairs) {
    ++row_ptr_[static_cast<size_t>(p.a) + 1];
    ++row_ptr_[static_cast<size_t>(p.b) + 1];
  }
  for (int v = 0; v < n_; ++v)
    row_ptr_[static_cast<size_t>(v) + 1] += row_ptr_[static_cast<size_t>(v)];
  adj_.assign(row_ptr_[static_cast<size_t>(n_)], Edge{});
  std::vector<size_t> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
  out_bytes_.assign(static_cast<size_t>(n_), 0);
  // Pairs are sorted by (a, b): filling row a in pair order keeps row a
  // sorted by neighbor. Row b receives neighbors `a` in ascending a for each
  // b — also sorted, because pairs with the same b arrive in ascending a.
  for (const Pair& p : pairs) {
    adj_[cursor[static_cast<size_t>(p.a)]++] = Edge{p.b, p.ab, p.ba};
    out_bytes_[static_cast<size_t>(p.a)] += p.ab;
  }
  for (const Pair& p : pairs) {
    adj_[cursor[static_cast<size_t>(p.b)]++] = Edge{p.a, p.ba, p.ab};
    out_bytes_[static_cast<size_t>(p.b)] += p.ba;
  }
  // Each row is a merge of two sorted sub-sequences (its a-side fill and its
  // b-side fill); restore the single sorted order per row.
  for (int v = 0; v < n_; ++v) {
    std::sort(adj_.begin() + static_cast<long>(row_ptr_[static_cast<size_t>(v)]),
              adj_.begin() + static_cast<long>(row_ptr_[static_cast<size_t>(v) + 1]),
              [](const Edge& x, const Edge& y) { return x.to < y.to; });
  }
  // Compact the accumulation buffer to the merged channels so memory stops
  // scaling with the add_traffic call count. A later add_traffic appends to
  // this compacted form and rebuilds identically.
  pending_.clear();
  for (const Pair& p : pairs) {
    if (p.ab) pending_.push_back(Triple{p.a, p.b, p.ab});
    if (p.ba) pending_.push_back(Triple{p.b, p.a, p.ba});
  }
  for (const auto& [r, bytes] : self_) pending_.push_back(Triple{r, r, bytes});
  pending_.shrink_to_fit();
  built_ = true;
}

const CommGraph::Edge* CommGraph::neighbors_begin(int v) const {
  build();
  SPBC_ASSERT(v >= 0 && v < n_);
  return adj_.data() + row_ptr_[static_cast<size_t>(v)];
}

const CommGraph::Edge* CommGraph::neighbors_end(int v) const {
  build();
  SPBC_ASSERT(v >= 0 && v < n_);
  return adj_.data() + row_ptr_[static_cast<size_t>(v) + 1];
}

size_t CommGraph::nedges() const {
  build();
  return adj_.size() / 2;
}

uint64_t CommGraph::out_bytes(int r) const {
  build();
  SPBC_ASSERT(r >= 0 && r < n_);
  return out_bytes_[static_cast<size_t>(r)];
}

uint64_t CommGraph::traffic(int src, int dst) const {
  SPBC_ASSERT(src >= 0 && src < n_ && dst >= 0 && dst < n_);
  build();
  if (src == dst) {
    // Self traffic is excluded from the adjacency but still reported.
    auto it = std::lower_bound(self_.begin(), self_.end(),
                               std::pair<int, uint64_t>{src, 0});
    return (it != self_.end() && it->first == src) ? it->second : 0;
  }
  const Edge* lo = neighbors_begin(src);
  const Edge* hi = neighbors_end(src);
  const Edge* it = std::lower_bound(
      lo, hi, dst, [](const Edge& e, int to) { return e.to < to; });
  return (it != hi && it->to == dst) ? it->out : 0;
}

uint64_t CommGraph::weight(int a, int b) const {
  if (a == b) return traffic(a, b) * 2;
  build();
  const Edge* lo = neighbors_begin(a);
  const Edge* hi = neighbors_end(a);
  const Edge* it =
      std::lower_bound(lo, hi, b, [](const Edge& e, int to) { return e.to < to; });
  return (it != hi && it->to == b) ? it->sym() : 0;
}

uint64_t CommGraph::logged_bytes(const std::vector<int>& cluster_of) const {
  SPBC_ASSERT(static_cast<int>(cluster_of.size()) == n_);
  build();
  uint64_t cut = 0;
  for (int v = 0; v < n_; ++v) {
    const int cv = cluster_of[static_cast<size_t>(v)];
    for (const Edge* e = neighbors_begin(v); e != neighbors_end(v); ++e) {
      if (e->to < v) continue;  // count each pair once
      if (cluster_of[static_cast<size_t>(e->to)] != cv) cut += e->sym();
    }
  }
  return cut;
}

std::vector<uint64_t> CommGraph::logged_bytes_per_rank(
    const std::vector<int>& cluster_of) const {
  SPBC_ASSERT(static_cast<int>(cluster_of.size()) == n_);
  build();
  std::vector<uint64_t> out(static_cast<size_t>(n_), 0);
  for (int v = 0; v < n_; ++v) {
    const int cv = cluster_of[static_cast<size_t>(v)];
    uint64_t logged = 0;
    for (const Edge* e = neighbors_begin(v); e != neighbors_end(v); ++e)
      if (cluster_of[static_cast<size_t>(e->to)] != cv) logged += e->out;
    out[static_cast<size_t>(v)] = logged;  // sender logs it
  }
  return out;
}

}  // namespace spbc::clustering
