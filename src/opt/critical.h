// Critical delay segments and the loop inventory.
//
// Paper, Section V (example 2 discussion): "the notion of a critical path
// is clearly inadequate ... Instead of a single critical path, the circuit
// has several critical combinational delay segments which may be disjoint.
// The criticality of these segments ... [is] directly related to associated
// slack variables in the inequality constraints."
//
// This module computes, from a solved design point (schedule + departures):
//   * per-path propagation slack (how far each L2R inequality is from
//     binding at the fixpoint);
//   * the tight-path set (segments, in the paper's sense);
//   * critical loops: simple cycles consisting entirely of tight paths,
//     with their delay sums, cycle spans and implied Tc = delay/span;
//   * setup-critical elements (zero setup slack).
// Plus a schedule-independent loop inventory of the whole circuit, whose
// maximum implied Tc is the cycle-ratio lower bound.
#pragma once

#include <string>
#include <vector>

#include "model/circuit.h"

namespace mintc::opt {

/// One feedback loop of latches.
struct LoopInfo {
  std::vector<int> path_indices;  // CombPath ids, head-to-tail
  double delay_sum = 0.0;         // sum of Δ_DQ(src) + Δ_ij around the loop
  int cycle_span = 0;             // sum of C flags: clock periods covered
  double implied_tc = 0.0;        // delay_sum / cycle_span

  /// "L1 -> L2 -> L1 (delay 140, spans 2 cycles, Tc >= 70)".
  std::string to_string(const Circuit& circuit) const;
};

struct LoopReport {
  std::vector<LoopInfo> loops;  // sorted by implied_tc, descending
  bool complete = true;         // false if enumeration was truncated
};

/// Schedule-independent inventory of the circuit's feedback loops (bounded
/// enumeration). loops.front().implied_tc equals the max cycle ratio when
/// complete.
LoopReport analyze_loops(const Circuit& circuit, int max_loops = 10000);

struct CriticalReport {
  std::vector<double> path_slack;   // per CombPath: sta::ProvenanceReport::path_slack
  std::vector<int> tight_paths;     // paths with ~zero slack (critical segments)
  std::vector<int> setup_critical;  // element ids with ~zero setup slack
  std::vector<LoopInfo> critical_loops;  // loops made entirely of tight paths

  std::string to_string(const Circuit& circuit) const;
};

/// Analyze criticality of a concrete design point. `departure` must be a
/// fixpoint of eq. (17) under `schedule` (e.g. MlpResult::departure or a
/// TimingReport's departures).
CriticalReport find_critical_segments(const Circuit& circuit, const ClockSchedule& schedule,
                                      const std::vector<double>& departure,
                                      double eps = 1e-6);

}  // namespace mintc::opt
