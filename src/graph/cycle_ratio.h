// Maximum cycle ratio:  λ* = max over directed cycles C of
//     Σ_{e in C} weight(e)  /  Σ_{e in C} transit(e),
// over cycles with positive total transit.
//
// Role in the reproduction: for a latch graph with edge weight
// Δ_DQj + Δ_ji and transit C_{pj,pi} (cycle-boundary crossings), λ* is a
// lower bound on the optimal cycle time of problem P1/P2 — the LP optimum can
// exceed it only when setup constraints bind. Tests use this as an
// independent certificate for the MLP result (the LP and the cycle-ratio
// computation share no code), and bench_ablation_cycle_ratio compares the
// two solvers' costs.
//
// The algorithm is Howard-style policy iteration; tests check it against
// exact simple-cycle enumeration (graph/cycles.h).
#pragma once

#include <optional>
#include <vector>

#include "graph/digraph.h"

namespace mintc::graph {

struct CycleRatioResult {
  double ratio = 0.0;
  /// Edge ids of one critical cycle achieving the ratio.
  std::vector<int> cycle_edges;
};

/// Howard-style policy iteration; also recovers a critical cycle. A cycle
/// with zero total transit and positive weight makes the ratio +inf.
/// Returns nullopt if the graph is acyclic.
std::optional<CycleRatioResult> max_cycle_ratio_howard(const Digraph& g, double tol = 1e-9);

}  // namespace mintc::graph
