// Warm-started cycle-time optimization sessions.
//
// Section VI of the paper proposes parametric programming to "study the
// effects on the optimal cycle time of varying the circuit delays" — which
// in practice means re-solving the same LP many times under small delay
// perturbations. A CycleTimeSession owns one mutable Circuit and carries the
// solver state that survives such perturbations:
//
//   * the optimal simplex basis of the last P2 solve, fed back as a
//     basis_hint so the next solve skips phase 1 and re-optimizes in a
//     handful of pivots (zero when the basis is still optimal);
//   * the one-time Circuit::validate() result, skipped on re-solves since
//     every session mutator preserves the validated invariants.
//
// All warm state is advisory: a defective basis falls back to the cold
// path inside the simplex, so session results equal one-shot
// minimize_cycle_time results on the mutated circuit.
//
// This is the optimizer-side sibling of sta::AnalysisSession (which warms
// the eq. 17 departure fixpoint); sensitivity.cpp and parametric.cpp are
// thin loops over this class.
#pragma once

#include <vector>

#include "base/error.h"
#include "model/circuit.h"
#include "opt/mlp.h"
#include "opt/sensitivity.h"

namespace mintc::opt {

class CycleTimeSession {
 public:
  explicit CycleTimeSession(Circuit circuit, MlpOptions options = {});

  const Circuit& circuit() const { return circuit_; }
  const MlpOptions& options() const { return options_; }

  /// Perturb one path's worst-case / best-case delay. The Circuit setters
  /// enforce 0 <= min <= max, so validity survives and re-validation is
  /// skipped on the next solve.
  void set_path_delay(int p, double delay);
  void set_path_min_delay(int p, double min_delay);
  /// Perturb an element's Δ_DQ. May break the paper's Δ_DQ >= Δ_DC
  /// assumption, so the cached validation is dropped and the next solve
  /// re-validates.
  void set_element_dq(int e, double dq);
  /// Perturb an element's clock skew σ. Skew only moves setup/hold RHS
  /// terms and the C3 margin, but a negative or non-finite value is
  /// invalid, so the cached validation is dropped and the next solve
  /// re-validates.
  void set_element_skew(int e, double skew);

  /// Algorithm MLP on the current circuit, warm-started from the cached
  /// simplex basis when one exists.
  Expected<MlpResult> minimize();

  /// dTc*/dΔ_ij for every path from the duals of one (warm) P2 solve.
  Expected<SensitivityReport> sensitivities();

  struct Counters {
    long lp_solves = 0;       // simplex-backed solves (minimize + sensitivities)
    long warm_lp_starts = 0;  // ... of which installed the cached basis
    long lp_fallbacks = 0;    // ... of which rejected it and ran two-phase
  };
  const Counters& counters() const { return counters_; }

 private:
  bool ensure_valid();  // run Circuit::validate() at most once per mutation epoch

  Circuit circuit_;
  MlpOptions options_;
  bool validated_ = false;
  std::vector<int> basis_;  // last optimal simplex basis (empty = none)
  Counters counters_;
};

}  // namespace mintc::opt
