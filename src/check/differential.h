// Differential cross-checking of the library's independent Tc engines.
//
// The repo computes the optimal cycle time by routes that share no
// machinery beyond the circuit model: Algorithm MLP over the simplex
// (opt/mlp.h), the two difference-constraint solvers anticipated by the
// paper's Section VI (opt/graph_solver.h: the Bellman-Ford binary search
// and the exact maximum cycle ratio), and the eq. (17) departure fixpoint
// validated dynamically by the token simulator (sta/fixpoint.h,
// sim/token_sim.h). check_circuit() asserts the full agreement matrix on
// one circuit:
//
//   * the simplex and both graph-solver optima agree on Tc* — the binary
//     search within 1e-4·max(1, Tc*), the exact solver within 1e-9
//     relative — or all report the same error kind,
//   * each engine's (schedule, departures) satisfies the nonlinear problem
//     P1 exactly,
//   * the eq. (17) engine matches the paper's Jacobi iteration (the
//     check/oracle.h oracle) from zero and on MLP's slide from the LP point:
//     bit for bit where the engine's fixpoint is exact, within 1e-6 where
//     it stopped at the eps deadband,
//   * an sta::AnalysisSession driven through a random delay perturbation,
//     a walk of warm-eligible path raises and setup/hold/skew edits, and
//     the undo of all of it reproduces fresh check_schedule reports
//     BIT-identically at every step,
//   * the token simulator's steady state matches the analytic fixpoint, and
//   * the whole matrix holds again under deterministic random per-latch
//     clock skews, reached both by construction and by AnalysisSession
//     set_element_skew edits (kSkewAgreement), and
//   * the circuit's .lct text round-trips: write_circuit -> parse_circuit
//     -> write_circuit returns the same bytes, and the parsed circuit has
//     the same element names, kinds and phases, path endpoints and
//     fan-in/fan-out order (kTextRoundTrip).
//
// This is the oracle behind the fuzzer (fuzzer.h) and the shrinker
// (shrink.h): any failure here is a bug in at least one engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/circuit.h"
#include "opt/constraints.h"

namespace mintc::check {

enum class CheckKind {
  kSolverAgreement,       // simplex Tc* vs graph-solver / exact-solver Tc* (or error kinds)
  kP1Satisfaction,        // an engine's (schedule, departures) violates P1
  kSchemeAgreement,       // the fixpoint engine disagrees with the Jacobi oracle
  kSimAgreement,          // token-sim steady state != analytic fixpoint
  kSessionAgreement,      // AnalysisSession warm/undo != fresh check_schedule
  kSkewAgreement,         // engines disagree under random per-latch skews
  kTextRoundTrip,         // the .lct writer and reader do not round-trip
};

const char* to_string(CheckKind kind);

struct CheckFailure {
  CheckKind kind = CheckKind::kSolverAgreement;
  std::string detail;  // human-readable description of the disagreement
};

struct DifferentialOptions {
  /// Constraint-generation knobs (hold constraints, nonoverlap, skew, ...)
  /// handed identically to both optimizing engines.
  opt::GeneratorOptions generator;
  bool check_simulation = true;
  /// Skew leg: re-run the whole agreement matrix on a copy of the circuit
  /// with deterministic random per-latch skews (drawn from rng_seed), plus
  /// an AnalysisSession leg that reaches the skewed circuit via
  /// set_element_skew edits (and returns via undo) demanding bit-identity
  /// with fresh analyses. Any inner disagreement reports as kSkewAgreement.
  bool check_skew = true;
  /// Per-latch skews are drawn uniformly from [0, skew_magnitude * Tc*].
  double skew_magnitude = 0.05;
  /// Fault injection for demos and shrinker tests: bump path 0's delay by
  /// this relative amount in the copy handed to the graph solvers only, so
  /// the engines see different circuits and must disagree. 0 = off.
  double inject_solver_skew = 0.0;
};

struct DifferentialReport {
  std::vector<CheckFailure> failures;
  bool feasible = false;  // the engines produced a schedule (vs. infeasible)
  double min_cycle = 0.0; // simplex Tc* when feasible

  bool ok() const { return failures.empty(); }
  bool has(CheckKind kind) const;
  std::string to_string() const;
};

/// Run every cross-engine check on one circuit. `rng_seed` drives the
/// random delay perturbation of the session check; the same seed always
/// perturbs the same path by the same amount.
DifferentialReport check_circuit(const Circuit& circuit, uint64_t rng_seed,
                                 const DifferentialOptions& options = {});

}  // namespace mintc::check
