#include "sta/analysis.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "base/approx.h"
#include "base/strings.h"
#include "base/table.h"
#include "obs/cost.h"
#include "obs/trace.h"

namespace mintc::sta {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

FixpointResult compute_early_departures(const Circuit& circuit, const ClockSchedule& schedule,
                                        const FixpointOptions& options) {
  const TimingView view(circuit);
  const ShiftTable shifts(schedule);
  FixpointResult res = compute_early_departures(view, shifts, options);
  res.stats.view_build_seconds = view.build_seconds();
  res.stats.shift_build_seconds = shifts.build_seconds();
  return res;
}

FixpointResult compute_early_departures(const TimingView& view, const ShiftTable& shifts,
                                        const FixpointOptions& options) {
  const int l = view.num_elements();
  const StageTimer timer;
  FixpointResult res;
  res.departure.assign(static_cast<size_t>(l), 0.0);
  // The min-fixpoint iterated upward from zero is monotone nondecreasing and
  // bounded by the (max) departure fixpoint, so a plain Gauss-Seidel loop
  // suffices (a different operator from eq. 17: min over fan-in).
  const int max_sweeps = options.effective_max_sweeps(l);
  for (res.sweeps = 0; res.sweeps < max_sweeps; ++res.sweeps) {
    bool changed = false;
    for (int i = 0; i < l; ++i) {
      ++res.updates;
      res.stats.edge_relaxations += view.fanin_count(i);
      const double v = early_departure_update(view, shifts, res.departure, i);
      if (std::fabs(v - res.departure[static_cast<size_t>(i)]) > options.eps) changed = true;
      res.departure[static_cast<size_t>(i)] = v;
    }
    if (!changed) {
      res.converged = true;
      ++res.sweeps;
      break;
    }
  }
  if (res.converged) {
    res.status = FixpointStatus::kConverged;
  } else {
    res.status = FixpointStatus::kSweepLimit;
    double worst = 0.0;
    for (int i = 0; i < l; ++i) {
      const double v = early_departure_update(view, shifts, res.departure, i);
      worst = std::max(worst, std::fabs(v - res.departure[static_cast<size_t>(i)]));
    }
    res.residual = worst;
  }
  res.stats.sweeps = res.sweeps;
  res.stats.solve_seconds = timer.seconds();
  // The early fixpoint is a solve of its own: charge it so a request's
  // CostAccount reconciles with EngineStats.edge_relaxations (which sums the
  // departure AND early passes).
  obs::charge_solve(res.stats.edge_relaxations, res.sweeps);
  return res;
}

namespace {

// The per-element slack functions. The full passes (fill_setup_slacks,
// fill_hold_slacks) and the warm refresh (refresh_slacks) evaluate every
// record through these two, so a refreshed record is bit-identical to the
// one a cold report computes.

// Element i's setup record under `departure`: D_i, A_i (eq. 14) and the
// setup slack (L1 for a latch, the leading-edge check for a flip-flop).
void setup_timing(const TimingView& view, const ClockSchedule& schedule,
                  const ShiftTable& shifts, const std::vector<double>& departure, int i,
                  ElementTiming& t) {
  t.departure = departure[static_cast<size_t>(i)];
  t.arrival = arrival_update(view, shifts, departure, i);
  if (view.is_latch(i)) {
    // The capture margin is setup + local clock skew (the view's fused
    // setup_margin): the trailing edge may arrive up to σ_i early, so the
    // data must settle that much sooner.
    t.setup_slack = schedule.T(view.phase(i)) - view.setup_margin(i) - t.departure;
  } else {
    // Flip-flop: arrival must precede the leading edge by setup + skew.
    t.setup_slack = (t.arrival == kNegInf) ? kInf : (-view.setup_margin(i) - t.arrival);
  }
}

// Element i's exact hold slack from the early departures `early`; +inf when
// i has no fan-in (nothing can corrupt it).
double hold_slack(const TimingView& view, const ClockSchedule& schedule,
                  const ShiftTable& shifts, const std::vector<double>& early, int i) {
  double earliest_next = kInf;
  const EdgeIndex fi_end = view.fanin_end(i);
  for (EdgeIndex fe = view.fanin_begin(i); fe < fi_end; ++fe) {
    const double a = early[static_cast<size_t>(view.edge_src(fe))] + view.edge_min_const(fe) +
                     shifts.at(view.edge_shift(fe));
    earliest_next = std::min(earliest_next, schedule.cycle + a);
  }
  if (earliest_next == kInf) return kInf;  // no fanin: nothing to corrupt
  // The next token must arrive at least hold + skew after the trailing edge
  // of a latch (the edge may arrive up to σ_i late), or after the leading
  // edge of a flip-flop.
  if (view.is_latch(i)) return earliest_next - (schedule.T(view.phase(i)) + view.hold_margin(i));
  return earliest_next - view.hold_margin(i);
}

// Folds element i's slack into a running worst record. Ties go to the lower
// index, so an ascending scan and a fold over any subset agree on the pick;
// +inf (and NaN) never qualify.
void fold_worst(double slack, int i, double& worst, int& element) {
  if (slack < worst || (slack == worst && i < element)) {
    worst = slack;
    element = i;
  }
}

// One check's summary fields in a TimingReport.
struct CheckSummary {
  double& worst;
  int& element;
  int& violations;
};

// Re-evaluates `elements` through `eval(i)`, which rewrites element i's
// record and returns its new slack, keeping the violation count; then
// settles the worst record. Only when the previous worst element's slack
// rose (or stopped being a candidate) can an untouched element take its
// place, so only then are all l slacks scanned.
template <typename SlackOf, typename Eval>
void refresh_check(int l, const std::vector<int>& elements, SlackOf slack_of, Eval eval,
                   CheckSummary summary) {
  for (const int i : elements) {
    if (definitely_lt(slack_of(i), 0.0, kAnalysisEps)) --summary.violations;
    if (definitely_lt(eval(i), 0.0, kAnalysisEps)) ++summary.violations;
  }
  const int prev = summary.element;
  double worst = kInf;
  int element = -1;
  if (prev >= 0 && !(slack_of(prev) <= summary.worst)) {
    for (int i = 0; i < l; ++i) fold_worst(slack_of(i), i, worst, element);
  } else {
    // Untouched slacks are no lower than the previous worst, and those equal
    // to it sit at higher indices (with no previous worst, they are all
    // +inf): the pick is the previous worst or a refreshed element.
    if (prev >= 0) {
      worst = slack_of(prev);
      element = prev;
    }
    for (const int i : elements) fold_worst(slack_of(i), i, worst, element);
  }
  summary.worst = worst;
  summary.element = element;
}

void fill_setup_slacks(const TimingView& view, const ClockSchedule& schedule,
                       const ShiftTable& shifts, TimingReport& rep) {
  const int l = view.num_elements();
  rep.setup_violations = 0;
  rep.worst_setup_slack = kInf;
  rep.worst_setup_element = -1;
  for (int i = 0; i < l; ++i) {
    ElementTiming& t = rep.elements[static_cast<size_t>(i)];
    setup_timing(view, schedule, shifts, rep.fixpoint.departure, i, t);
    fold_worst(t.setup_slack, i, rep.worst_setup_slack, rep.worst_setup_element);
    if (definitely_lt(t.setup_slack, 0.0, kAnalysisEps)) ++rep.setup_violations;
  }
  if (l == 0) rep.worst_setup_slack = 0.0;
  rep.setup_ok = rep.setup_violations == 0;
}

void fill_hold_slacks(const TimingView& view, const ClockSchedule& schedule,
                      const ShiftTable& shifts, const std::vector<double>* early,
                      TimingReport& rep) {
  rep.hold_violations = 0;
  rep.worst_hold_slack = kInf;
  rep.worst_hold_element = -1;
  for (int i = 0; i < view.num_elements(); ++i) {
    ElementTiming& t = rep.elements[static_cast<size_t>(i)];
    t.hold_slack = early == nullptr ? kInf : hold_slack(view, schedule, shifts, *early, i);
    fold_worst(t.hold_slack, i, rep.worst_hold_slack, rep.worst_hold_element);
    if (definitely_lt(t.hold_slack, 0.0, kAnalysisEps)) ++rep.hold_violations;
  }
  rep.hold_ok = rep.hold_violations == 0;
}

}  // namespace

void refresh_slacks(const TimingView& view, const ClockSchedule& schedule,
                    const ShiftTable& shifts, const std::vector<int>& setup_elements,
                    const std::vector<int>& hold_elements, const std::vector<double>* early,
                    TimingReport& rep) {
  const int l = view.num_elements();
  if (l == 0) return;
  std::vector<ElementTiming>& records = rep.elements;
  const auto at = [](int i) { return static_cast<size_t>(i); };
  refresh_check(
      l, setup_elements, [&](int i) { return records[at(i)].setup_slack; },
      [&](int i) {
        setup_timing(view, schedule, shifts, rep.fixpoint.departure, i, records[at(i)]);
        return records[at(i)].setup_slack;
      },
      {rep.worst_setup_slack, rep.worst_setup_element, rep.setup_violations});
  rep.setup_ok = rep.setup_violations == 0;
  if (early == nullptr) return;
  refresh_check(
      l, hold_elements, [&](int i) { return records[at(i)].hold_slack; },
      [&](int i) {
        return records[at(i)].hold_slack = hold_slack(view, schedule, shifts, *early, i);
      },
      {rep.worst_hold_slack, rep.worst_hold_element, rep.hold_violations});
  rep.hold_ok = rep.hold_violations == 0;
}

TimingReport check_schedule(const Circuit& circuit, const ClockSchedule& schedule,
                            const AnalysisOptions& options) {
  const StageTimer wall_timer;
  const obs::TraceSpan span("analysis.check_schedule", "sta");

  // One flattened view + shift table serves every stage below.
  const TimingView view(circuit);
  const ShiftTable shifts(schedule);
  const int l = circuit.num_elements();

  // Departure fixpoint from below (analysis direction).
  FixpointResult fixpoint = compute_departures(
      view, shifts, std::vector<double>(static_cast<size_t>(l), 0.0), options.fixpoint);

  TimingReport rep =
      assemble_report(circuit, schedule, view, shifts, options, std::move(fixpoint));
  rep.stats.view_build_seconds = view.build_seconds();
  rep.stats.shift_build_seconds = shifts.build_seconds();
  rep.stats.wall_seconds = wall_timer.seconds();
  return rep;
}

TimingReport assemble_report(const Circuit& circuit, const ClockSchedule& schedule,
                             const TimingView& view, const ShiftTable& shifts,
                             const AnalysisOptions& options, FixpointResult fixpoint,
                             const FixpointResult* early) {
  const StageTimer wall_timer;
  TimingReport rep;
  const int l = circuit.num_elements();
  rep.elements.resize(static_cast<size_t>(l));

  // Clock constraints.
  rep.clock_violations = check_clock_constraints(schedule, circuit.k_matrix(), kAnalysisEps);
  rep.schedule_ok = rep.clock_violations.empty();

  rep.fixpoint = std::move(fixpoint);
  rep.converged = rep.fixpoint.converged;
  rep.stats.sweeps = rep.fixpoint.sweeps;
  rep.stats.edge_relaxations = rep.fixpoint.stats.edge_relaxations;
  rep.stats.add_stage("departure-fixpoint", rep.fixpoint.stats.solve_seconds);

  const StageTimer setup_timer;
  fill_setup_slacks(view, schedule, shifts, rep);
  rep.stats.add_stage("setup-slack", setup_timer.seconds());

  // Hold slacks (exact short-path check).
  FixpointResult early_local;
  if (options.check_hold) {
    if (early == nullptr) {
      early_local = compute_early_departures(view, shifts, options.fixpoint);
      early = &early_local;
    }
    rep.stats.edge_relaxations += early->stats.edge_relaxations;
    rep.stats.add_stage("early-fixpoint", early->stats.solve_seconds);
  }
  const StageTimer hold_timer;
  fill_hold_slacks(view, schedule, shifts, options.check_hold ? &early->departure : nullptr,
                   rep);
  if (options.check_hold) rep.stats.add_stage("hold-slack", hold_timer.seconds());

  // Constraint provenance (which term produced each D_i, what is tight).
  if (options.provenance && rep.converged) {
    const StageTimer prov_timer;
    const obs::TraceSpan prov_span("analysis.provenance", "sta");
    rep.provenance = constraint_provenance(circuit, view, schedule, shifts,
                                           rep.fixpoint.departure, kAnalysisEps);
    rep.stats.add_stage("provenance", prov_timer.seconds());
  }

  rep.feasible = rep.schedule_ok && rep.converged && rep.setup_ok && rep.hold_ok;
  rep.stats.wall_seconds = wall_timer.seconds();
  return rep;
}

std::string TimingReport::to_string(const Circuit& circuit) const {
  std::ostringstream out;
  out << "circuit '" << circuit.name() << "': " << (feasible ? "PASS" : "FAIL") << "\n";
  if (!schedule_ok) {
    out << "clock constraint violations:\n";
    for (const ClockViolation& v : clock_violations) {
      out << "  " << v.constraint << " violated by " << fmt_time(v.amount) << "\n";
    }
  }
  if (!converged) {
    if (fixpoint.hit_sweep_limit()) {
      out << "departure fixpoint hit its sweep budget after " << fixpoint.sweeps
          << " sweeps (residual " << fmt_time(fixpoint.residual)
          << "); raise FixpointOptions::max_sweeps\n";
    } else {
      out << "departure fixpoint diverged (positive latch loop under "
             "this schedule)\n";
    }
    return out.str();
  }
  TextTable table({"element", "kind", "phase", "arrival", "departure", "setup slack",
                   "hold slack"});
  for (int i = 0; i < circuit.num_elements(); ++i) {
    const Element& e = circuit.element(i);
    const ElementTiming& t = elements[static_cast<size_t>(i)];
    const auto inf_fmt = [](double v) {
      if (v == kInf) return std::string("-");
      if (v == kNegInf) return std::string("-inf");
      return fmt_time(v);
    };
    table.add_row({e.name, mintc::to_string(e.kind), "phi" + std::to_string(e.phase),
                   inf_fmt(t.arrival), fmt_time(t.departure), inf_fmt(t.setup_slack),
                   inf_fmt(t.hold_slack)});
  }
  out << table.to_string();
  if (!provenance.empty()) out << provenance.to_string(circuit);
  return out.str();
}

}  // namespace mintc::sta
