#include "graph/cycle_ratio.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "graph/scc.h"

namespace mintc::graph {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

std::optional<CycleRatioResult> max_cycle_ratio_howard(const Digraph& g, double tol) {
  const int n = g.num_nodes();
  if (n == 0 || !has_cycle(g)) return std::nullopt;

  // policy[u]: chosen out-edge id, or -1 for dead ends.
  std::vector<int> policy(static_cast<size_t>(n), -1);
  for (int u = 0; u < n; ++u) {
    const auto& outs = g.out_edges(u);
    if (!outs.empty()) policy[static_cast<size_t>(u)] = outs.front();
  }

  std::vector<double> lambda(static_cast<size_t>(n), kNegInf);
  std::vector<double> value(static_cast<size_t>(n), 0.0);
  std::vector<int> cycle_entry(static_cast<size_t>(n), -1);  // anchor node of reached cycle

  const auto succ = [&](int u) -> int {
    const int e = policy[static_cast<size_t>(u)];
    return e < 0 ? -1 : g.edge(e).to;
  };

  const auto evaluate = [&]() {
    std::fill(lambda.begin(), lambda.end(), kNegInf);
    std::fill(value.begin(), value.end(), 0.0);
    std::fill(cycle_entry.begin(), cycle_entry.end(), -1);
    std::vector<int> state(static_cast<size_t>(n), 0);  // 0=unseen 1=on current walk 2=done
    std::vector<int> walk;
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
          const Edge& e = g.edge(policy[static_cast<size_t>(*p)]);
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
          const Edge& e = g.edge(policy[static_cast<size_t>(*p)]);
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
            const Edge& e = g.edge(policy[static_cast<size_t>(v)]);
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

  const int max_iters = 10 * n * std::max(1, g.num_edges());
  int iters = 0;
  evaluate();
  while (iters++ < max_iters) {
    bool changed = false;
    for (const Edge& e : g.edges()) {
      const size_t u = static_cast<size_t>(e.from);
      const size_t x = static_cast<size_t>(e.to);
      if (lambda[x] == kNegInf) continue;
      if (lambda[x] > lambda[u] + tol) {
        policy[u] = static_cast<int>(&e - g.edges().data());
        changed = true;
      } else if (std::fabs(lambda[x] - lambda[u]) <= tol && std::isfinite(lambda[u])) {
        const double cand = e.weight - lambda[u] * e.transit + value[x];
        if (cand > value[u] + tol) {
          policy[u] = static_cast<int>(&e - g.edges().data());
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
    u = g.edge(e).to;
  } while (u != anchor);
  return res;
}

}  // namespace mintc::graph
