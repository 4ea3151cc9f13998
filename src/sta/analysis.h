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

/// The tolerance of every analysis's clock, setup and hold checks.
inline constexpr double kAnalysisEps = 1e-7;

struct AnalysisOptions {
  FixpointOptions fixpoint;
  bool check_hold = false;
  /// Attach a constraint-provenance report (arg-max edges, tight
  /// constraints, named critical chain) to the TimingReport.
  bool provenance = false;
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

  /// The worst slack of each check and the element holding it: the lowest
  /// index among equal minima, -1 when no element has a finite slack.
  double worst_setup_slack = 0.0;
  int worst_setup_element = -1;
  double worst_hold_slack = 0.0;
  int worst_hold_element = -1;
  /// Elements whose setup (hold) check fails: setup_ok is setup_violations
  /// == 0, and likewise for hold. Kept so a refresh of a few elements can
  /// update the flags without a scan.
  int setup_violations = 0;
  int hold_violations = 0;

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
/// between check_schedule and the incremental AnalysisSession; the session's
/// warm refresh (refresh_slacks below) re-runs its per-element slack
/// functions, which is what makes warm results bit-identical to cold ones.
TimingReport assemble_report(const Circuit& circuit, const ClockSchedule& schedule,
                             const TimingView& view, const ShiftTable& shifts,
                             const AnalysisOptions& options, FixpointResult fixpoint,
                             const FixpointResult* early = nullptr);

/// The slack passes of assemble_report, for a few elements. `rep` must be a
/// report of the same view and schedule whose records are current
/// except those named here: the setup records (D_i, A_i, setup slack) of
/// `setup_elements` and, when `early` is set, the hold slacks of
/// `hold_elements` are re-evaluated by the per-element functions the full
/// passes run, so each matches a cold report bit for bit. The violation
/// counts, ok flags and worst records follow from those records alone,
/// unless the previous worst element's slack rose: only then are all l
/// slacks rescanned.
void refresh_slacks(const TimingView& view, const ClockSchedule& schedule,
                    const ShiftTable& shifts, const std::vector<int>& setup_elements,
                    const std::vector<int>& hold_elements, const std::vector<double>* early,
                    TimingReport& rep);

/// Earliest departure times (min-fixpoint over min delays); used by the
/// exact hold check and exposed for tests.
FixpointResult compute_early_departures(const Circuit& circuit, const ClockSchedule& schedule,
                                        const FixpointOptions& options = {});
FixpointResult compute_early_departures(const TimingView& view, const ShiftTable& shifts,
                                        const FixpointOptions& options = {});

}  // namespace mintc::sta
