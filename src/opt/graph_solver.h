// The graph algorithms the paper anticipates: two optimizers over the
// difference-constraint form of P2.
//
// Section VI: "The LP formulation provides a convenient theoretical
// foundation ... for developing algorithms that are potentially more
// efficient than the simplex algorithm. We are currently investigating just
// such algorithms, noting that the entries of the constraint matrix for
// this problem are exclusively topological (i.e., 0, ±1)."
//
// Realization (the direction later taken by Szymanski '92 and
// Shenoy-Brayton): after the change of variables
//     e_i  = s_i + T_i          (phase end)
//     dh_i = s_{p_i} + D_i      (absolute departure)
// every SMO constraint becomes a difference constraint
// x_u − x_v ≤ a + k·Tc with a constant a and an integer k >= 0:
//     C1:  e_i − s_i ≤ Tc,  s_i − x0 ≤ Tc
//     C4:  x0 − s_i ≤ 0,  s_i − e_i ≤ 0
//     C2:  s_i − s_{i+1} ≤ 0
//     C3:  e_j − s_i ≤ C_ji·Tc − margin
//     L1:  dh_i − e_{p_i} ≤ −Δ_DC_i
//     L2R: dh_j − dh_i ≤ C_{p_j,p_i}·Tc − Δ_DQ_j − Δ_ji
//     L3:  s_{p_i} − dh_i ≤ 0
// (flip-flop pin/setup rows and the optional width/separation/skew/hold
// extensions transform the same way). At a fixed Tc the system is feasible
// iff the constraint graph (an edge v → u of weight a + k·Tc per row) has
// no negative cycle. A cycle C stays nonnegative iff Σa + Tc·Σk >= 0, so
// the optimum is the maximum cycle ratio
//     Tc* = max over cycles C with Σk > 0 of  −Σa / Σk,
// and the system is infeasible at every Tc iff some cycle with Σk = 0 has
// Σa < 0.
//
// minimize_cycle_time_exact computes that ratio: Howard policy iteration
// names a critical cycle, one Bellman-Ford pass at its ratio certifies it
// (a negative cycle found there raises Tc* to that cycle's ratio, a Newton
// step), and the certified potentials are the returned schedule. It is the
// production `min`. The returned schedule is one optimal schedule, in
// general not the vertex the simplex picks; Tc* agrees with MLP's to
// rounding.
//
// minimize_cycle_time_graph binary-searches Tc over Bellman-Ford
// feasibility instead, to an absolute 1e-7. It is the reference svcbench
// checks the service's `min` answers against, and a leg of the fuzzer's
// agreement matrix; it shares only build_system with the exact solver.
//
// Tests pin both solvers to the simplex result on every circuit;
// bench_ablation_graph_solver compares the bisection's cost with MLP's.
#pragma once

#include <string>
#include <vector>

#include "base/error.h"
#include "model/circuit.h"
#include "obs/stats.h"
#include "opt/constraints.h"

namespace mintc::opt {

struct GraphSolveOptions {
  GeneratorOptions generator;  // same extension knobs as the LP path
  /// Skip Circuit::validate() — for session loops over a circuit already
  /// validated once (see MlpOptions::assume_valid).
  bool assume_valid = false;
};

struct GraphSolveResult {
  double min_cycle = 0.0;
  ClockSchedule schedule;
  std::vector<double> departure;  // L2-fixpoint departures under the schedule
  int search_steps = 0;           // binary-search iterations
  long relaxations = 0;           // Bellman-Ford edge relaxations, total
  EngineStats stats;              // wall + bracket / binary-search stage split
};

/// Minimize the cycle time by binary search over difference-constraint
/// feasibility. Produces the same optimal Tc as minimize_cycle_time (up to
/// 1e-7); fails with kInfeasible when no Tc below 1e12 works.
Expected<GraphSolveResult> minimize_cycle_time_graph(const Circuit& circuit,
                                                     const GraphSolveOptions& options = {});

/// One row of a critical cycle: x_u − x_v ≤ a + k·Tc. `name` is the row's
/// generate_lp name ("L2R:L1->L2", "C3:phi1/phi2", ...); the variable
/// bounds, which generate_lp carries as bounds rather than rows, are named
/// "C4:s1>=0", "C4:T1>=0" and "L3:D(L1)>=0".
struct CycleRow {
  std::string name;
  double a = 0.0;
  int k = 0;
};

struct ExactSolveResult {
  double min_cycle = 0.0;          // −Σa/Σk over critical_cycle (plus ulp raises)
  ClockSchedule schedule;          // the certified Bellman-Ford potentials
  std::vector<double> departure;   // least L2 fixpoint under the schedule
  std::vector<CycleRow> critical_cycle;  // the rows whose ratio is Tc*, in cycle order
  int newton_steps = 0;            // certification passes that raised Tc* to a cycle's ratio
  int ulp_raises = 0;              // ... that raised it by one ulp (float noise)
  long relaxations = 0;            // Bellman-Ford edge relaxations, total
  EngineStats stats;               // wall + "cycle-ratio" / "certify" stages
};

/// Tc* as the maximum cycle ratio of the constraint graph (see above).
/// Fails with kInvalidCircuit, kInfeasible (a negative cycle without a Tc
/// term), or kNotConverged (certification or the departure fixpoint ran
/// out of budget).
Expected<ExactSolveResult> minimize_cycle_time_exact(const Circuit& circuit,
                                                     const GraphSolveOptions& options = {});

/// The exact solver with Howard's ratio replaced by a caller's lower bound
/// on Tc*: certification's Newton steps carry it up to Tc*. From a bound
/// above Tc* the bound itself comes back; critical_cycle is empty unless a
/// Newton step named a cycle.
Expected<ExactSolveResult> minimize_cycle_time_from(const Circuit& circuit, double lower_bound,
                                                    const GraphSolveOptions& options = {});

}  // namespace mintc::opt
