#include "graph/scc.h"

#include <algorithm>

namespace mintc::graph {

SccResult strongly_connected_components(const Digraph& g) {
  const int n = g.num_nodes();
  SccResult res;
  res.num_components = tarjan_components(
      n, [&](int v) { return std::pair<size_t, size_t>(0, g.out_edges(v).size()); },
      [&](int v, std::int64_t k) { return g.edge(g.out_edges(v)[static_cast<size_t>(k)]).to; },
      res.component);
  res.members.resize(static_cast<size_t>(res.num_components));
  for (int v = 0; v < n; ++v) {
    res.members[static_cast<size_t>(res.component[static_cast<size_t>(v)])].push_back(v);
  }

  res.nontrivial.assign(static_cast<size_t>(res.num_components), false);
  for (int c = 0; c < res.num_components; ++c) {
    if (res.members[static_cast<size_t>(c)].size() > 1) {
      res.nontrivial[static_cast<size_t>(c)] = true;
    }
  }
  for (const Edge& e : g.edges()) {
    if (e.from == e.to) {
      res.nontrivial[static_cast<size_t>(res.component[static_cast<size_t>(e.from)])] = true;
    }
  }
  return res;
}

bool has_cycle(const Digraph& g) {
  const SccResult scc = strongly_connected_components(g);
  return std::any_of(scc.nontrivial.begin(), scc.nontrivial.end(), [](bool b) { return b; });
}

}  // namespace mintc::graph
