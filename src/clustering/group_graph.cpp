#include "clustering/group_graph.hpp"

#include <algorithm>
#include <array>

#include "util/assert.hpp"

namespace spbc::clustering {

GroupGraph GroupGraph::from_ranks(const CommGraph& graph,
                                  const std::vector<int>& unit_of_rank,
                                  int nunits) {
  SPBC_ASSERT(static_cast<int>(unit_of_rank.size()) == graph.nranks());
  // (a, b, weight) triples with a < b, one per inter-unit rank edge.
  std::vector<std::array<uint64_t, 3>> triples;
  triples.reserve(graph.nedges());
  for (int v = 0; v < graph.nranks(); ++v) {
    const int uv = unit_of_rank[static_cast<size_t>(v)];
    for (const CommGraph::Edge* e = graph.neighbors_begin(v);
         e != graph.neighbors_end(v); ++e) {
      if (e->to < v) continue;  // one direction per pair
      const int uo = unit_of_rank[static_cast<size_t>(e->to)];
      if (uo == uv) continue;  // intra-unit traffic is never logged
      SPBC_ASSERT(uv < nunits && uo < nunits);
      triples.push_back({static_cast<uint64_t>(std::min(uv, uo)),
                         static_cast<uint64_t>(std::max(uv, uo)), e->sym()});
    }
  }
  // Sort and merge duplicates.
  std::sort(triples.begin(), triples.end(),
            [](const auto& x, const auto& y) {
              return x[0] != y[0] ? x[0] < y[0] : x[1] < y[1];
            });
  size_t out = 0;
  for (size_t i = 0; i < triples.size();) {
    auto merged = triples[i];
    size_t j = i + 1;
    for (; j < triples.size() && triples[j][0] == merged[0] &&
           triples[j][1] == merged[1];
         ++j)
      merged[2] += triples[j][2];
    triples[out++] = merged;
    i = j;
  }
  triples.resize(out);

  GroupGraph g;
  g.n = nunits;
  g.row_ptr.assign(static_cast<size_t>(nunits) + 1, 0);
  for (const auto& t : triples) {
    ++g.row_ptr[t[0] + 1];
    ++g.row_ptr[t[1] + 1];
  }
  for (int u = 0; u < nunits; ++u)
    g.row_ptr[static_cast<size_t>(u) + 1] += g.row_ptr[static_cast<size_t>(u)];
  g.adj.assign(g.row_ptr[static_cast<size_t>(nunits)], 0);
  g.w.assign(g.adj.size(), 0);
  // Fill each row's lower neighbors, then its higher ones: the triples are
  // sorted, so both passes append in ascending order and every row comes
  // out sorted.
  std::vector<size_t> cursor(g.row_ptr.begin(), g.row_ptr.end() - 1);
  for (const auto& t : triples) {
    size_t ib = cursor[t[1]]++;
    g.adj[ib] = static_cast<int>(t[0]);
    g.w[ib] = t[2];
  }
  for (const auto& t : triples) {
    size_t ia = cursor[t[0]]++;
    g.adj[ia] = static_cast<int>(t[1]);
    g.w[ia] = t[2];
  }
  return g;
}

}  // namespace spbc::clustering
