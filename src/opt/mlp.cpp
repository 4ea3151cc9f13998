#include "opt/mlp.h"

#include <cmath>
#include <sstream>

#include "base/approx.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mintc::opt {

namespace {

// Slack and dual threshold below which a row is reported as critical.
constexpr double kCriticalEps = 1e-6;

// Shared back half of minimize_cycle_time / refine_schedule: solve the
// prepared LP, then run steps 2-5 of Algorithm MLP.
Expected<MlpResult> solve_and_slide(const Circuit& circuit, GeneratedLp gen,
                                    const MlpOptions& options);

Error validation_error(const Circuit& circuit, const std::vector<std::string>& problems) {
  std::ostringstream msg;
  msg << "circuit '" << circuit.name() << "' failed validation:";
  for (const std::string& p : problems) msg << "\n  " << p;
  return make_error(ErrorKind::kInvalidCircuit, msg.str());
}

}  // namespace

Expected<MlpResult> minimize_cycle_time(const Circuit& circuit, const MlpOptions& options) {
  // Structural validation first: the LP would happily "solve" nonsense.
  if (!options.assume_valid) {
    const std::vector<std::string> problems = circuit.validate();
    if (!problems.empty()) return validation_error(circuit, problems);
  }
  return solve_and_slide(circuit, generate_lp(circuit, options.generator), options);
}

const char* to_string(SecondaryObjective objective) {
  switch (objective) {
    case SecondaryObjective::kMinTotalWidth: return "min-total-width";
    case SecondaryObjective::kMaxTotalWidth: return "max-total-width";
    case SecondaryObjective::kMinPhaseStarts: return "min-phase-starts";
    case SecondaryObjective::kMaxPhaseStarts: return "max-phase-starts";
  }
  return "?";
}

Expected<MlpResult> refine_schedule(const Circuit& circuit, double cycle_time,
                                    SecondaryObjective objective, const MlpOptions& options) {
  if (!options.assume_valid) {
    const std::vector<std::string> problems = circuit.validate();
    if (!problems.empty()) return validation_error(circuit, problems);
  }
  GeneratedLp gen = generate_lp(circuit, options.generator);
  // Pin the cycle time and swap in the secondary objective.
  gen.model.add_row("REFINE:Tc", {{gen.vars.tc, 1.0}}, lp::Sense::kEq, cycle_time);
  gen.model.set_objective(gen.vars.tc, 0.0);
  const bool on_widths = objective == SecondaryObjective::kMinTotalWidth ||
                         objective == SecondaryObjective::kMaxTotalWidth;
  const bool maximize = objective == SecondaryObjective::kMaxTotalWidth ||
                        objective == SecondaryObjective::kMaxPhaseStarts;
  for (const int v : on_widths ? gen.vars.T : gen.vars.s) {
    gen.model.set_objective(v, maximize ? -1.0 : 1.0);
  }
  Expected<MlpResult> result = solve_and_slide(circuit, std::move(gen), options);
  if (result) result->min_cycle = cycle_time;  // objective is the secondary one
  return result;
}

namespace {

Expected<MlpResult> solve_and_slide(const Circuit& circuit, GeneratedLp gen,
                                    const MlpOptions& options) {
  const StageTimer wall_timer;  // whole-algorithm wall clock (single accounting path)
  const obs::TraceSpan span("mlp.solve", "opt");
  const StageTimer lp_timer;
  const lp::SimplexSolver solver(options.lp);
  lp::Solution sol;
  {
    const obs::TraceSpan lp_span("mlp.lp-solve", "opt");
    sol = solver.solve(gen.model);
  }
  const double lp_seconds = lp_timer.seconds();
  switch (sol.status) {
    case lp::SolveStatus::kOptimal:
      break;
    case lp::SolveStatus::kInfeasible:
      return make_error(ErrorKind::kInfeasible,
                        "timing constraints of '" + circuit.name() + "' are infeasible");
    case lp::SolveStatus::kUnbounded:
      return make_error(ErrorKind::kUnbounded,
                        "P2 unbounded for '" + circuit.name() + "' (modeling bug)");
    case lp::SolveStatus::kIterLimit:
      return make_error(ErrorKind::kNotConverged, "simplex hit its iteration limit");
  }

  MlpResult res;
  res.lp_stats = sol.stats;
  res.counts = gen.counts;
  res.min_cycle = snap_zero(sol.objective);
  res.schedule = schedule_from_solution(gen.vars, sol.x);
  res.lp_departure = departures_from_solution(gen.vars, sol.x);
  // Clean tiny negative noise out of the LP point before iterating.
  for (double& d : res.lp_departure) d = std::max(0.0, snap_zero(d));
  res.schedule.cycle = snap_zero(res.schedule.cycle);
  for (double& x : res.schedule.start) x = std::max(0.0, snap_zero(x));
  for (double& x : res.schedule.width) x = std::max(0.0, snap_zero(x));

  // Steps 2-5: slide the departures down to the L2 fixpoint with the clock
  // held at the LP optimum.
  sta::FixpointResult fix;
  {
    const obs::TraceSpan slide_span("mlp.slide-fixpoint", "opt");
    fix = sta::compute_departures(circuit, res.schedule, res.lp_departure, options.fixpoint);
  }
  if (!fix.converged) {
    std::string why = fix.hit_sweep_limit()
                          ? "hit the sweep budget (residual " + std::to_string(fix.residual) +
                                "; raise FixpointOptions::max_sweeps)"
                          : "diverged";
    return make_error(ErrorKind::kNotConverged,
                      "departure fixpoint " + why +
                          " (this should be impossible for an "
                          "LP-feasible schedule; please report)");
  }
  res.departure = fix.departure;
  res.fixpoint_sweeps = fix.sweeps;
  res.fixpoint_updates = fix.updates;
  res.stats = fix.stats;
  res.stats.add_stage("lp-solve", lp_seconds);

  // Critical constraints: tight rows with non-zero duals.
  const StageTimer scan_timer;
  {
    const obs::TraceSpan scan_span("mlp.critical-scan", "opt");
    for (int r = 0; r < gen.model.num_rows(); ++r) {
      const double slack = sol.row_slack(gen.model, r);
      const double dual = sol.duals[static_cast<size_t>(r)];
      if (std::fabs(slack) <= kCriticalEps && std::fabs(dual) > kCriticalEps) {
        res.critical.push_back({gen.model.row(r).name, slack, dual});
      }
    }
  }
  res.stats.add_stage("critical-scan", scan_timer.seconds());
  // The inner fixpoint stamped its own (smaller) wall; this solve's wall is
  // the whole lp + slide + scan span.
  res.stats.wall_seconds = wall_timer.seconds();
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("mlp.solves").inc();
  reg.counter("mlp.critical_constraints").inc(static_cast<long>(res.critical.size()));
  return res;
}

}  // namespace

bool satisfies_p1(const Circuit& circuit, const ClockSchedule& schedule,
                  const std::vector<double>& departure, double eps) {
  // Clock constraints C1-C4 (+C3 for the circuit's K matrix).
  if (!check_clock_constraints(schedule, circuit.k_matrix(), eps).empty()) return false;

  const TimingView view(circuit);
  const ShiftTable shifts(schedule);
  for (int i = 0; i < view.num_elements(); ++i) {
    const double d = departure[static_cast<size_t>(i)];
    // L3.
    if (definitely_lt(d, 0.0, eps)) return false;
    if (view.is_latch(i)) {
      // L1 (eq. 16), with the capture margin setup + σ_i (fused in the view).
      if (definitely_gt(d + view.setup_margin(i), shifts.width(view.phase(i)), eps)) {
        return false;
      }
      // L2 as an equality (eq. 17).
      const double expect = mintc::departure_update(view, shifts, departure, i);
      if (!approx_eq(d, expect, eps)) return false;
    } else {
      // Flip-flop: pinned departure and leading-edge setup; the arrival on
      // every fan-in edge must precede the leading edge by the setup time.
      if (!approx_eq(d, 0.0, eps)) return false;
      const double a = arrival_update(view, shifts, departure, i);
      if (view.fanin_count(i) > 0 && definitely_gt(a, -view.setup_margin(i), eps)) return false;
    }
  }
  return true;
}

}  // namespace mintc::opt
