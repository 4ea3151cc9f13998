// The analysis problem ("checkTc"): given a circuit AND a concrete clock
// schedule, decide whether all timing constraints are satisfied, and report
// per-latch slacks.
//
// This is the other half of the paper's problem statement (Section I): "The
// analysis problem seeks to determine if these constraints are indeed
// satisfied for a given circuit and a given clocking scheme."
//
// The engine computes the least-fixpoint departure times of eq. (17), then
// checks:
//   * clock constraints C1-C4 (+C3 against the circuit's K matrix),
//   * setup constraints L1 (departure-based, eq. 16; flip-flops checked
//     against their leading edge),
//   * optionally, exact short-path/hold constraints using earliest
//     departure times (a min-fixpoint over the circuit's min delays).
#pragma once

#include <string>
#include <vector>

#include "model/circuit.h"
#include "sta/fixpoint.h"
#include "sta/provenance.h"

namespace mintc::sta {

struct AnalysisOptions {
  FixpointOptions fixpoint;
  bool check_hold = false;
  /// Attach a constraint-provenance report (arg-max edges, tight
  /// constraints, named critical chain) to the TimingReport.
  bool provenance = false;
  double eps = 1e-7;
};

/// Per-element timing summary.
struct ElementTiming {
  double departure = 0.0;    // D_i
  double arrival = 0.0;      // A_i (-inf if no fanin)
  double setup_slack = 0.0;  // >= 0 iff the setup constraint holds
  double hold_slack = 0.0;   // +inf when not checked / no fanin
};

struct TimingReport {
  bool feasible = false;          // everything below passed
  bool schedule_ok = false;       // clock constraints C1-C4
  bool converged = false;         // fixpoint reached (false => positive loop)
  bool setup_ok = false;
  bool hold_ok = true;

  std::vector<ElementTiming> elements;
  std::vector<ClockViolation> clock_violations;
  FixpointResult fixpoint;
  /// Filled when AnalysisOptions::provenance is set and the fixpoint
  /// converged; empty() otherwise.
  ProvenanceReport provenance;
  /// Whole-analysis stage accounting: view/shift builds, the departure
  /// fixpoint, and (when enabled) the hold-side min-fixpoint.
  EngineStats stats;

  double worst_setup_slack = 0.0;
  int worst_setup_element = -1;  // element index, -1 if no latches
  double worst_hold_slack = 0.0;
  int worst_hold_element = -1;

  /// Render a human-readable report table (used by the analyzer example).
  std::string to_string(const Circuit& circuit) const;
};

/// Run the full analysis of `circuit` under `schedule`.
TimingReport check_schedule(const Circuit& circuit, const ClockSchedule& schedule,
                            const AnalysisOptions& options = {});

/// Everything check_schedule does AFTER the departure fixpoint: clock
/// constraints, arrivals, setup/hold slacks, provenance, feasibility. The
/// caller supplies the solved fixpoint (cold or warm) and, optionally, a
/// precomputed early-departure min-fixpoint (`early`; pass nullptr to have
/// it computed here when options.check_hold). This is the shared back half
/// between check_schedule and the incremental AnalysisSession — keeping it
/// single-sourced is what makes warm results bit-identical to cold ones.
TimingReport assemble_report(const Circuit& circuit, const ClockSchedule& schedule,
                             const TimingView& view, const ShiftTable& shifts,
                             const AnalysisOptions& options, FixpointResult fixpoint,
                             const FixpointResult* early = nullptr);

/// The setup-slack pass of assemble_report over `rep.fixpoint.departure`:
/// each element's departure, arrival and setup slack, worst_setup_* and
/// setup_ok. The session's warm refresh runs the same pass, so warm and cold
/// reports share one slack arithmetic.
void fill_setup_slacks(const Circuit& circuit, const ClockSchedule& schedule,
                       const TimingView& view, const ShiftTable& shifts, double eps,
                       TimingReport& rep);

/// The hold-slack pass of assemble_report: each element's hold slack from the
/// early departures `early`, worst_hold_* and hold_ok. A null `early` (hold
/// not checked) leaves every hold slack +inf and hold_ok true.
void fill_hold_slacks(const Circuit& circuit, const ClockSchedule& schedule,
                      const TimingView& view, const ShiftTable& shifts,
                      const std::vector<double>* early, double eps, TimingReport& rep);

/// Earliest departure times (min-fixpoint over min delays); used by the
/// exact hold check and exposed for tests.
FixpointResult compute_early_departures(const Circuit& circuit, const ClockSchedule& schedule,
                                        const FixpointOptions& options = {});
FixpointResult compute_early_departures(const TimingView& view, const ShiftTable& shifts,
                                        const FixpointOptions& options = {});

}  // namespace mintc::sta
