#include "graph/cycle_ratio.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace mintc::graph {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

std::optional<CycleRatioResult> max_cycle_ratio_howard(int num_nodes,
                                                       std::span<const Edge> edges,
                                                       double tol) {
  const int n = num_nodes;
  // An acyclic graph needs no test of its own: no policy closes a cycle, so
  // every lambda stays -inf, no edge improves a policy and no node is best.
  if (n == 0) return std::nullopt;
  assert(edges.size() <= static_cast<size_t>(std::numeric_limits<int>::max()));

  // policy[u]: chosen out-edge id (the lowest-id out-edge first), or -1 for
  // dead ends.
  std::vector<int> policy(static_cast<size_t>(n), -1);
  for (size_t id = 0; id < edges.size(); ++id) {
    const Edge& e = edges[id];
    assert(e.from >= 0 && e.from < n && e.to >= 0 && e.to < n);
    int& first = policy[static_cast<size_t>(e.from)];
    if (first < 0) first = static_cast<int>(id);
  }

  std::vector<double> lambda(static_cast<size_t>(n), kNegInf);
  std::vector<double> value(static_cast<size_t>(n), 0.0);
  std::vector<int> cycle_entry(static_cast<size_t>(n), -1);  // anchor node of reached cycle
  std::vector<int> state(static_cast<size_t>(n));  // 0=unseen 1=on current walk 2=done
  std::vector<int> walk;

  const auto succ = [&](int u) -> int {
    const int e = policy[static_cast<size_t>(u)];
    return e < 0 ? -1 : edges[static_cast<size_t>(e)].to;
  };

  const auto evaluate = [&]() {
    std::fill(lambda.begin(), lambda.end(), kNegInf);
    std::fill(value.begin(), value.end(), 0.0);
    std::fill(cycle_entry.begin(), cycle_entry.end(), -1);
    std::fill(state.begin(), state.end(), 0);
    for (int start = 0; start < n; ++start) {
      if (state[static_cast<size_t>(start)] != 0) continue;
      walk.clear();
      int u = start;
      while (u >= 0 && state[static_cast<size_t>(u)] == 0) {
        state[static_cast<size_t>(u)] = 1;
        walk.push_back(u);
        u = succ(u);
      }
      if (u >= 0 && state[static_cast<size_t>(u)] == 1) {
        // Found a new cycle: nodes from `u` to the end of `walk`.
        const auto it = std::find(walk.begin(), walk.end(), u);
        double wsum = 0.0;
        double tsum = 0.0;
        for (auto p = it; p != walk.end(); ++p) {
          const Edge& e = edges[static_cast<size_t>(policy[static_cast<size_t>(*p)])];
          wsum += e.weight;
          tsum += e.transit;
        }
        double lam;
        if (tsum > tol) {
          lam = wsum / tsum;
        } else {
          lam = wsum > tol ? std::numeric_limits<double>::infinity() : kNegInf;
        }
        // Anchor value at `u`, propagate backwards around the cycle.
        lambda[static_cast<size_t>(u)] = lam;
        value[static_cast<size_t>(u)] = 0.0;
        cycle_entry[static_cast<size_t>(u)] = u;
        for (auto p = walk.end() - 1; *p != u; --p) {
          const Edge& e = edges[static_cast<size_t>(policy[static_cast<size_t>(*p)])];
          lambda[static_cast<size_t>(*p)] = lam;
          cycle_entry[static_cast<size_t>(*p)] = u;
          value[static_cast<size_t>(*p)] =
              e.weight - lam * e.transit + value[static_cast<size_t>(e.to)];
        }
      }
      // Resolve remaining walk nodes (tree part, or chain into a dead end /
      // previously resolved node).
      for (auto p = walk.rbegin(); p != walk.rend(); ++p) {
        const int v = *p;
        if (state[static_cast<size_t>(v)] == 2) continue;
        if (lambda[static_cast<size_t>(v)] == kNegInf) {
          const int s = succ(v);
          if (s >= 0 && lambda[static_cast<size_t>(s)] != kNegInf &&
              std::isfinite(lambda[static_cast<size_t>(s)])) {
            const Edge& e = edges[static_cast<size_t>(policy[static_cast<size_t>(v)])];
            const double lam = lambda[static_cast<size_t>(s)];
            lambda[static_cast<size_t>(v)] = lam;
            cycle_entry[static_cast<size_t>(v)] = cycle_entry[static_cast<size_t>(s)];
            value[static_cast<size_t>(v)] =
                e.weight - lam * e.transit + value[static_cast<size_t>(s)];
          }
        }
        state[static_cast<size_t>(v)] = 2;
      }
    }
  };

  // At most 10·n·E improvement rounds. The product passes 2^31 on graphs of
  // a few tens of thousands of nodes, so it is counted in 64 bits, and
  // saturates where even those would overflow.
  const std::int64_t rounds_per_node =
      10 * std::max<std::int64_t>(1, static_cast<std::int64_t>(edges.size()));
  const std::int64_t max_rounds = n > std::numeric_limits<std::int64_t>::max() / rounds_per_node
                                      ? std::numeric_limits<std::int64_t>::max()
                                      : n * rounds_per_node;
  evaluate();
  for (std::int64_t round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (size_t id = 0; id < edges.size(); ++id) {
      const Edge& e = edges[id];
      const size_t u = static_cast<size_t>(e.from);
      const size_t x = static_cast<size_t>(e.to);
      if (lambda[x] == kNegInf) continue;
      if (lambda[x] > lambda[u] + tol) {
        policy[u] = static_cast<int>(id);
        changed = true;
      } else if (std::fabs(lambda[x] - lambda[u]) <= tol && std::isfinite(lambda[u])) {
        const double cand = e.weight - lambda[u] * e.transit + value[x];
        if (cand > value[u] + tol) {
          policy[u] = static_cast<int>(id);
          changed = true;
        }
      }
    }
    if (!changed) break;
    evaluate();
  }

  // Best cycle: max lambda over nodes; extract its edges by walking policy.
  int best = -1;
  for (int u = 0; u < n; ++u) {
    if (lambda[static_cast<size_t>(u)] == kNegInf) continue;
    if (best < 0 || lambda[static_cast<size_t>(u)] > lambda[static_cast<size_t>(best)]) best = u;
  }
  if (best < 0) return std::nullopt;

  CycleRatioResult res;
  res.ratio = lambda[static_cast<size_t>(best)];
  // Walk to the cycle, then once around it.
  std::vector<bool> seen(static_cast<size_t>(n), false);
  int u = best;
  while (!seen[static_cast<size_t>(u)]) {
    seen[static_cast<size_t>(u)] = true;
    u = succ(u);
    assert(u >= 0);
  }
  const int anchor = u;
  do {
    const int e = policy[static_cast<size_t>(u)];
    res.cycle_edges.push_back(e);
    u = edges[static_cast<size_t>(e)].to;
  } while (u != anchor);
  return res;
}

std::optional<CycleRatioResult> max_cycle_ratio_howard(const Digraph& g, double tol) {
  return max_cycle_ratio_howard(g.num_nodes(), g.edges(), tol);
}

}  // namespace mintc::graph
