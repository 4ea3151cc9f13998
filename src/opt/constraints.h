// SMO constraint generation (paper Sections III and IV).
//
// Builds the linear program P2 for a Circuit:
//
//   minimize Tc
//   subject to
//     C1  periodicity        T_i <= Tc,  s_i <= Tc
//     C2  phase ordering     s_i <= s_{i+1}
//     C3  phase nonoverlap   s_i >= s_j + T_j - C_ji*Tc   for K_ij = 1
//     C4  nonnegativity      Tc, T_i, s_i >= 0            (variable bounds)
//     L1  setup              D_i + Δ_DCi <= T_pi          (latches)
//     L2R relaxed propagation  D_i >= D_j + Δ_DQj + Δ_ji + S_{pj,pi}
//     L3  nonnegativity      D_i >= 0                     (variable bounds)
//
// plus the flip-flop rows (departure pinned to the leading edge, setup
// against the leading edge) and the optional extensions the paper mentions
// in Section III-A: minimum phase widths, minimum phase separation, and a
// clock-skew margin. Conservative linear hold (short-path) rows are also
// available.
//
// Row names encode the constraint class so solvers and reports can point at
// tight constraints in circuit terms: "C1:T1<=Tc", "C3:phi1/phi2",
// "L1:setup(L3)", "L2R:L2->L4", ...
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"
#include "model/circuit.h"

namespace mintc::opt {

/// Where each timing quantity lives in the LP variable vector.
struct VariableMap {
  int tc = -1;
  std::vector<int> s;  // per phase (index 0 = phase 1)
  std::vector<int> T;
  std::vector<int> D;  // per element
};

struct GeneratorOptions {
  /// Emit C3 nonoverlap rows (the paper's minimum clock requirement).
  bool enforce_nonoverlap = true;

  /// Use the arrival-based setup constraint (10) instead of the realistic
  /// departure-based constraint (11). Provided for studying the paper's
  /// remark that (10) can be satisfied by zero-width phases.
  bool arrival_based_setup = false;

  /// Extensions (Section III-A: "minimum phase width, minimum phase
  /// separation, and clock skew ... can be easily added"). Clock skew is
  /// the model's per-latch Element::skew: each setup/hold row charges its
  /// own σ_i, and the C3 margin charges the largest.
  double min_phase_width = 0.0;
  double min_phase_separation = 0.0;

  /// Emit conservative linear hold rows (short-path check): assumes the
  /// earliest departure from any source latch is its phase's leading edge.
  bool hold_constraints = false;

  /// If >= 0, adds the row Tc <= bound — e.g. a quick upper bound from a
  /// baseline, the paper's "very good initial guess" suggestion.
  double tc_upper_bound = -1.0;
};

/// Per-class row counts, for the paper's 4k + (F+1)l bound and the GaAs
/// example's "91 constraints".
struct ConstraintCounts {
  int c1 = 0, c2 = 0, c3 = 0, l1 = 0, l2r = 0;
  int ff_pin = 0, ff_setup = 0, hold = 0, ext = 0;
  int bounds = 0;  // nonnegativity constraints C4 + L3 (variable bounds)

  int rows() const { return c1 + c2 + c3 + l1 + l2r + ff_pin + ff_setup + hold + ext; }
};

struct GeneratedLp {
  lp::Model model;
  VariableMap vars;
  ConstraintCounts counts;
  /// Per CombPath: the LP row carrying its delay on the RHS (the L2R row
  /// for latch destinations, the FF setup row for flip-flop destinations);
  /// -1 if the path generated no such row. The row's dual is dTc*/dΔ_ij.
  std::vector<int> delay_row_of_path;
};

/// The C3 nonoverlap margin: min_phase_separation plus the worst per-latch
/// skew σ_i, since the guard protects every latch pair. generate_lp and the
/// graph solvers' difference system both take it from here.
double nonoverlap_margin(const Circuit& circuit, const GeneratorOptions& options);

/// The rows generate_lp emits for this circuit and options, per class,
/// counted from the circuit alone: no LP is built. generate_lp takes its
/// `counts` from here.
ConstraintCounts count_constraints(const Circuit& circuit, const GeneratorOptions& options = {});

/// Build P2 for the circuit. The circuit must pass Circuit::validate().
GeneratedLp generate_lp(const Circuit& circuit, const GeneratorOptions& options = {});

/// Extract the clock schedule from an LP solution vector.
ClockSchedule schedule_from_solution(const VariableMap& vars, const std::vector<double>& x);

/// Extract the departure times from an LP solution vector.
std::vector<double> departures_from_solution(const VariableMap& vars,
                                             const std::vector<double>& x);

}  // namespace mintc::opt
