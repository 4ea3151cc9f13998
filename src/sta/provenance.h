// Constraint provenance: explain WHERE an analysis answer came from.
//
// The departure fixpoint (eq. 17) gives each latch a number D_i; this module
// reconstructs the argument of the max that produced it — the arg-max fan-in
// edge (D_j + Δ_DQj + Δ_ji + S_pj,pi), or the 0-clamp when every propagation
// term is negative — and scans every SMO constraint for tightness:
//
//   L1  (eq. 16):  D_i + setup_i <= T_pi      tight => setup-critical latch
//   L2  (eq. 17):  D_i >= D_j + Δ + S         tight => the edge carries D_i
//   L3:            D_i >= 0                   tight => latch departs at the edge
//   C1-C4:         the clock constraints of check_clock_constraints
//
// From the arg-max edges it also extracts the critical chain: starting at
// the worst-setup-slack latch, follow arg-max predecessors until a latch is
// clamped at 0 (chain source) or a latch repeats (critical loop). The chain
// is rendered with element and phase names — the named latch→phase→slack
// walk a designer needs to know which path bounds the cycle time.
#pragma once

#include <string>
#include <vector>

#include "model/circuit.h"
#include "model/timing_view.h"

namespace mintc::sta {

/// Which eq. (17) term produced D_i.
struct DepartureOrigin {
  int element = -1;   // destination element i
  int via_path = -1;  // Circuit path index of the arg-max edge; -1 => 0-clamp
  int from = -1;      // source element of that edge (-1 when clamped)
  double term = 0.0;  // winning propagation term (0.0 for the clamp)
};

/// One constraint satisfied with equality (within eps).
struct TightConstraint {
  std::string kind;  // "L1", "L2", "L3", "C1".."C4"
  std::string name;  // rendered, e.g. "L1[P2]" or "L2[P1->P2 via M12]"
  double slack = 0.0;
};

struct ProvenanceReport {
  std::vector<DepartureOrigin> origins;  // one per element, index-aligned
  std::vector<TightConstraint> tight;    // every tight constraint, L's then C's
  /// Per CombPath, the propagation slack at the fixpoint: D_i - term for a
  /// latch destination (the L2 row), -(setup + skew) - term for a flip-flop
  /// destination (no L2 row; the setup deadline at its leading edge), where
  /// term = (D_j + (Δ_DQj + Δ_ji)) + S. Zero marks a critical segment.
  std::vector<double> path_slack;
  /// Worst-setup-slack latch first, then its arg-max predecessors; ends at a
  /// 0-clamped latch or closes a loop (`chain_is_loop`).
  std::vector<int> critical_chain;
  /// Path indices connecting consecutive chain elements (size - 1 entries,
  /// or size entries when the chain closes a loop).
  std::vector<int> critical_paths;
  bool chain_is_loop = false;

  bool empty() const { return origins.empty(); }

  /// "P2(phi2) <- M12 <- P1(phi1)" — destination first, like the chain walk.
  std::string chain_to_string(const Circuit& circuit) const;
  /// Full report: tight-constraint table plus the named critical chain.
  std::string to_string(const Circuit& circuit) const;
};

/// Reconstruct provenance for a converged departure vector under `schedule`.
/// `view` and `shifts` are the caller's flattening of `circuit` and
/// `schedule`. `departure` must be the eq. (17) least fixpoint (e.g. from
/// compute_departures or MlpResult::departure); tightness uses `eps`.
ProvenanceReport constraint_provenance(const Circuit& circuit, const TimingView& view,
                                       const ClockSchedule& schedule, const ShiftTable& shifts,
                                       const std::vector<double>& departure, double eps = 1e-6);

}  // namespace mintc::sta
