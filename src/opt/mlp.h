// Algorithm MLP — Optimal Cycle Time Calculation by Modified LP
// (paper Section IV).
//
//   1. Build and solve the relaxed linear program P2 (constraints.h).
//   2. Hold the clock variables at their optimal values and iterate the
//      nonlinear propagation equalities L2 (eq. 17) on the departure times
//      until they reach a fixpoint ("sliding" departures toward the origin).
//
// By Theorem 1, the resulting Tc equals the optimum of the nonlinear problem
// P1; the fixpoint step only restores the max-equalities that the relaxation
// dropped. The returned solution satisfies P1 exactly (satisfies_p1() checks
// this and is exercised by the property tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/error.h"
#include "lp/simplex.h"
#include "model/circuit.h"
#include "opt/constraints.h"
#include "sta/fixpoint.h"

namespace mintc::opt {

struct MlpOptions {
  GeneratorOptions generator;
  lp::SimplexSolver::Options lp;
  sta::FixpointOptions fixpoint;
  /// Skip Circuit::validate() — for session loops that mutate an
  /// already-validated circuit only through invariant-preserving setters.
  bool assume_valid = false;
};

/// A constraint that is tight at the optimum. The duals quantify the
/// sensitivity dTc*/d(rhs) — the paper's "critical combinational delay
/// segments" are the L2R rows appearing here.
struct TightConstraint {
  std::string name;
  double slack = 0.0;
  double dual = 0.0;
};

struct MlpResult {
  double min_cycle = 0.0;           // Tc* (optimal value of P1 == P2)
  ClockSchedule schedule;           // optimal clock schedule
  std::vector<double> lp_departure; // D_i straight out of the LP (step 1)
  std::vector<double> departure;    // D_i after the fixpoint (steps 3-5)
  int fixpoint_sweeps = 0;          // iterations of steps 3-5
  std::int64_t fixpoint_updates = 0;
  lp::SolveStats lp_stats;
  ConstraintCounts counts;
  std::vector<TightConstraint> critical;
  /// Per-stage accounting: the slide fixpoint's stats plus an "lp-solve"
  /// stage for the simplex step.
  EngineStats stats;
};

/// Run Algorithm MLP on the circuit. Fails with:
///   kInvalidCircuit — Circuit::validate() found problems;
///   kInfeasible     — the constraint system has no solution;
///   kUnbounded      — indicates a modeling bug (P2 always has Tc >= 0);
///   kNotConverged   — iteration limits hit.
Expected<MlpResult> minimize_cycle_time(const Circuit& circuit, const MlpOptions& options = {});

/// True if (schedule, departure) satisfies the constraints of the original
/// nonlinear problem P1: clock constraints, setup constraints, and the
/// propagation *equalities* L2 (not just the relaxed >=).
bool satisfies_p1(const Circuit& circuit, const ClockSchedule& schedule,
                  const std::vector<double>& departure, double eps = 1e-6);

/// Secondary objectives for selecting among the (generally non-unique)
/// optimal schedules. The paper, discussing example 1: "the optimal
/// solution will not be unique ... Additional requirements, such as minimum
/// duty cycle, may be applied to select one of these different solutions."
enum class SecondaryObjective {
  kMinTotalWidth,   // minimum duty cycle: minimize sum of T_i
  kMaxTotalWidth,   // maximum margin: maximize sum of T_i
  kMinPhaseStarts,  // pack phases early: minimize sum of s_i
  kMaxPhaseStarts,  // pack phases late:  maximize sum of s_i
};

const char* to_string(SecondaryObjective objective);

/// Re-optimize with the cycle time pinned to `cycle_time` (typically the
/// Tc* from minimize_cycle_time) and the secondary objective above; returns
/// a refined optimal solution. For the GaAs example this is what reproduces
/// the published schedule shape (phi3 completely overlapped by phi1): the
/// minimum-duty-cycle refinement pushes the precharge phase against the
/// cycle boundary.
Expected<MlpResult> refine_schedule(const Circuit& circuit, double cycle_time,
                                    SecondaryObjective objective,
                                    const MlpOptions& options = {});

}  // namespace mintc::opt
