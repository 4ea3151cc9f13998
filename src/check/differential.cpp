#include "check/differential.h"

#include <cmath>
#include <random>
#include <sstream>

#include "base/strings.h"
#include "check/oracle.h"
#include "opt/graph_solver.h"
#include "opt/mlp.h"
#include "parser/lct.h"
#include "sim/token_sim.h"
#include "sta/analysis.h"
#include "sta/fixpoint.h"
#include "sta/session.h"

namespace mintc::check {

const char* to_string(CheckKind kind) {
  switch (kind) {
    case CheckKind::kSolverAgreement: return "solver-agreement";
    case CheckKind::kP1Satisfaction: return "p1-satisfaction";
    case CheckKind::kSchemeAgreement: return "scheme-agreement";
    case CheckKind::kSimAgreement: return "sim-agreement";
    case CheckKind::kSessionAgreement: return "session-agreement";
    case CheckKind::kSkewAgreement: return "skew-agreement";
    case CheckKind::kTextRoundTrip: return "text-round-trip";
  }
  return "?";
}

bool DifferentialReport::has(CheckKind kind) const {
  for (const CheckFailure& f : failures) {
    if (f.kind == kind) return true;
  }
  return false;
}

std::string DifferentialReport::to_string() const {
  if (ok()) return "all engines agree";
  std::ostringstream out;
  for (const CheckFailure& f : failures) {
    out << "[" << check::to_string(f.kind) << "] " << f.detail << "\n";
  }
  return out.str();
}

namespace {

// The exact solver's Tc* must match the simplex's this closely, relative;
// the binary search's within kTcTol, scaled by max(1, Tc*).
constexpr double kExactRelTol = 1e-9;
constexpr double kTcTol = 1e-4;
// Per-element departure tolerance where a solve stopped at the eps deadband.
constexpr double kDepartureTol = 1e-6;
// The tolerance handed to satisfies_p1.
constexpr double kP1Eps = 1e-5;
// The perturbation checks run at the optimum scaled by kSlackFactor, so
// every loop has strictly negative gain and every solve stays convergent.
// The random delay perturbation is at most kMaxPerturb relative; it must
// stay below kSlackFactor - 1 - margin or an increase on a tight loop could
// legitimately diverge after the edit (see check_circuit).
constexpr double kSlackFactor = 1.25;
constexpr double kMaxPerturb = 0.2;
// The token simulator's generation budget.
constexpr int kSimMaxGenerations = 1024;

std::vector<double> zeros(const Circuit& circuit) {
  return std::vector<double>(static_cast<size_t>(circuit.num_elements()), 0.0);
}

// Largest per-element difference, with the index where it occurs.
struct VecDiff {
  double amount = 0.0;
  int element = -1;
};

VecDiff max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  VecDiff d;
  for (size_t i = 0; i < a.size(); ++i) {
    const double v = std::fabs(a[i] - b[i]);
    if (v > d.amount) {
      d.amount = v;
      d.element = static_cast<int>(i);
    }
  }
  return d;
}

std::string flag_string(const sta::FixpointResult& r) {
  if (r.converged) return "converged";
  if (r.diverged) return "diverged";
  return "hit the sweep limit (residual " + fmt_time(r.residual, 9) + ")";
}

// First bitwise difference between two timing reports (empty = identical).
// Exact comparison is the point: the session's correctness contract is
// bit-identity with a fresh check_schedule, not agreement within eps.
std::string diff_reports(const sta::TimingReport& a, const sta::TimingReport& b) {
  if (a.feasible != b.feasible || a.schedule_ok != b.schedule_ok ||
      a.converged != b.converged || a.setup_ok != b.setup_ok || a.hold_ok != b.hold_ok) {
    return "feasibility flags differ";
  }
  if (a.fixpoint.departure != b.fixpoint.departure) {
    const VecDiff d = max_abs_diff(a.fixpoint.departure, b.fixpoint.departure);
    return "departure vectors differ by " + fmt_time(d.amount, 12) + " at element " +
           std::to_string(d.element);
  }
  if (a.elements.size() != b.elements.size()) return "element counts differ";
  for (size_t i = 0; i < a.elements.size(); ++i) {
    const sta::ElementTiming& x = a.elements[i];
    const sta::ElementTiming& y = b.elements[i];
    if (x.departure != y.departure || x.arrival != y.arrival ||
        x.setup_slack != y.setup_slack || x.hold_slack != y.hold_slack) {
      return "slack record differs at element " + std::to_string(i);
    }
  }
  if (a.worst_setup_slack != b.worst_setup_slack ||
      a.worst_setup_element != b.worst_setup_element ||
      a.worst_hold_slack != b.worst_hold_slack ||
      a.worst_hold_element != b.worst_hold_element) {
    return "worst-slack summary differs";
  }
  return {};
}

// The session's incrementally kept content fingerprint against the one a
// fresh session computes from scratch for the expected content.
bool fingerprint_matches(const sta::AnalysisSession& session, const Circuit& circuit,
                         const ClockSchedule& schedule) {
  return session.content_fingerprint() ==
         sta::AnalysisSession(circuit, schedule).content_fingerprint();
}

// The .lct writer against the reader: the written text parses back into a
// circuit that writes the same bytes and has the same structure. Empty when
// it does.
std::string text_round_trip_problem(const Circuit& circuit) {
  const std::string text = parser::write_circuit(circuit);
  const Expected<Circuit> back = parser::parse_circuit(text);
  if (!back) return "the written .lct does not parse: " + back.error().to_string();
  if (parser::write_circuit(*back) != text) return "the parsed .lct writes different bytes";
  if (back->num_phases() != circuit.num_phases() ||
      back->num_elements() != circuit.num_elements() ||
      back->num_paths() != circuit.num_paths()) {
    return "the parsed .lct has other phase, element or path counts";
  }
  for (int i = 0; i < circuit.num_elements(); ++i) {
    const Element& a = circuit.element(i);
    const Element& b = back->element(i);
    if (a.name != b.name || a.kind != b.kind || a.phase != b.phase) {
      return "element " + std::to_string(i) + " parses back as '" + b.name + "'";
    }
    if (circuit.fanin(i) != back->fanin(i) || circuit.fanout(i) != back->fanout(i)) {
      return "element '" + a.name + "' parses back with other fan-in or fan-out";
    }
  }
  for (int p = 0; p < circuit.num_paths(); ++p) {
    if (circuit.path(p).from != back->path(p).from || circuit.path(p).to != back->path(p).to) {
      return "path " + std::to_string(p) + " parses back with other endpoints";
    }
  }
  return {};
}

}  // namespace

DifferentialReport check_circuit(const Circuit& circuit, uint64_t rng_seed,
                                 const DifferentialOptions& options) {
  DifferentialReport rep;
  const auto fail = [&rep](CheckKind kind, std::string detail) {
    rep.failures.push_back({kind, std::move(detail)});
  };

  if (std::string problem = text_round_trip_problem(circuit); !problem.empty()) {
    fail(CheckKind::kTextRoundTrip, std::move(problem));
  }

  // Engines 1 and 2: simplex MLP and the difference-constraint graph
  // solver. The graph solver optionally sees a skewed copy (fault
  // injection for the shrinker demo).
  opt::MlpOptions lp_opts;
  lp_opts.generator = options.generator;
  const auto lp = opt::minimize_cycle_time(circuit, lp_opts);
  Circuit graph_input = circuit;
  if (options.inject_solver_skew != 0.0 && circuit.num_paths() > 0) {
    graph_input.set_path_delay(0,
                               circuit.path(0).delay * (1.0 + options.inject_solver_skew));
  }
  opt::GraphSolveOptions bf_opts;
  bf_opts.generator = options.generator;
  const auto bf = opt::minimize_cycle_time_graph(graph_input, bf_opts);
  const auto ex = opt::minimize_cycle_time_exact(graph_input, bf_opts);

  // The graph solvers against the simplex: both feasible, or both failing
  // with the same error kind.
  const auto outcomes_agree = [&](const char* solver, const auto& other) {
    if (lp.has_value() != other.has_value()) {
      std::ostringstream out;
      out << "simplex " << (lp ? "found Tc*=" + fmt_time(lp->min_cycle, 6) : lp.error().to_string())
          << " but " << solver << " "
          << (other ? "found Tc*=" + fmt_time(other->min_cycle, 6) : other.error().to_string());
      fail(CheckKind::kSolverAgreement, out.str());
      return false;
    }
    if (!lp && lp.error().kind != other.error().kind) {
      fail(CheckKind::kSolverAgreement,
           std::string("error kinds differ: simplex ") + mintc::to_string(lp.error().kind) +
               " vs " + solver + " " + mintc::to_string(other.error().kind));
    }
    return lp.has_value();
  };
  const bool bf_ok = outcomes_agree("graph solver", bf);
  const bool ex_ok = outcomes_agree("exact solver", ex);
  if (!bf_ok || !ex_ok) return rep;  // no schedule to run the remaining checks against

  rep.feasible = true;
  rep.min_cycle = lp->min_cycle;
  const double tc_scale = std::max(1.0, std::fabs(lp->min_cycle));
  if (std::fabs(lp->min_cycle - bf->min_cycle) > kTcTol * tc_scale) {
    fail(CheckKind::kSolverAgreement,
         "simplex Tc*=" + fmt_time(lp->min_cycle, 8) + " vs graph Tc*=" +
             fmt_time(bf->min_cycle, 8) + " (tol " + fmt_time(kTcTol * tc_scale, 8) + ")");
  }
  // The exact solver agrees to rounding, relative to Tc* itself.
  if (std::fabs(lp->min_cycle - ex->min_cycle) > kExactRelTol * std::fabs(lp->min_cycle)) {
    fail(CheckKind::kSolverAgreement,
         "simplex Tc*=" + fmt_time(lp->min_cycle, 15) + " vs exact Tc*=" +
             fmt_time(ex->min_cycle, 15) + " (relative tol " + fmt_time(kExactRelTol, 12) + ")");
  }

  // Each engine's solution must satisfy the nonlinear problem P1 exactly —
  // not just the relaxed LP rows.
  if (!opt::satisfies_p1(circuit, lp->schedule, lp->departure, kP1Eps)) {
    fail(CheckKind::kP1Satisfaction, "simplex (schedule, departures) violates P1");
  }
  if (!opt::satisfies_p1(graph_input, bf->schedule, bf->departure, kP1Eps)) {
    fail(CheckKind::kP1Satisfaction, "graph-solver (schedule, departures) violates P1");
  }
  if (!opt::satisfies_p1(graph_input, ex->schedule, ex->departure, kP1Eps)) {
    fail(CheckKind::kP1Satisfaction, "exact-solver (schedule, departures) violates P1");
  }

  // One flattened view serves every fixpoint below (the engine legs, the sim
  // cross-check and the perturbation baseline); only the shift tables differ
  // per schedule.
  const TimingView view(circuit);
  const ShiftTable opt_shifts(lp->schedule);

  // Engine 3, the eq. (17) engine against the paper's Jacobi iteration (an
  // oracle evaluated from the Circuit), from zero at the LP optimum and from
  // the LP departures MLP slides down from. The float operator F is
  // monotone, so from a start x0 with F(x0) >= x0 (zero) every iteration
  // climbs to the least fixpoint, and from one with F(x0) <= x0 it slides to
  // the greatest fixpoint under x0: where both land on an exact fixpoint
  // from such a start they must agree bit for bit. Elsewhere — either stops
  // at the eps deadband (a zero-gain loop drifting by ulps), or the LP point
  // sits an ulp above its image somewhere and the order picks one of a
  // zero-gain loop's many fixpoints — within kDepartureTol.
  const auto check_against_oracle = [&](const char* leg, const std::vector<double>& engine,
                                        const std::vector<double>& initial) {
    const sta::FixpointResult oracle = jacobi_departures(circuit, lp->schedule, initial);
    if (!oracle.converged) {
      fail(CheckKind::kSchemeAgreement,
           std::string(leg) + ": jacobi oracle " + flag_string(oracle));
      return;
    }
    bool up = true;
    bool down = true;
    for (int i = 0; i < circuit.num_elements(); ++i) {
      const double image = departure_update(view, opt_shifts, initial, i);
      up = up && image >= initial[static_cast<size_t>(i)];
      down = down && image <= initial[static_cast<size_t>(i)];
    }
    const bool exact = (up || down) && oracle.residual == 0.0 &&
                       sta::fixpoint_residual(view, opt_shifts, engine) == 0.0;
    const VecDiff d = max_abs_diff(engine, oracle.departure);
    if (exact ? engine != oracle.departure : d.amount > kDepartureTol) {
      fail(CheckKind::kSchemeAgreement,
           std::string(leg) + ": engine differs from the jacobi oracle by " +
               fmt_time(d.amount, 12) + " at element '" + circuit.element(d.element).name +
               "'" + (exact ? " (both fixpoints exact: bitwise required)" : ""));
    }
  };
  const sta::FixpointResult from_zero =
      sta::compute_departures(view, opt_shifts, zeros(circuit));
  if (from_zero.converged) {
    check_against_oracle("from zero", from_zero.departure, zeros(circuit));
  } else {
    fail(CheckKind::kSchemeAgreement, "engine " + flag_string(from_zero) + " at the LP optimum");
  }
  check_against_oracle("MLP slide", lp->departure, lp->lp_departure);

  // The token simulator re-derives the same steady state dynamically.
  // Simulate slightly above the optimum (as the sim tests do) so zero-slack
  // loops do not stretch the generation count.
  if (options.check_simulation) {
    const ClockSchedule sim_sch = lp->schedule.scaled(1.02);
    sim::SimOptions so;
    so.max_generations = kSimMaxGenerations;
    const sim::SimResult sim = sim::simulate_tokens(circuit, sim_sch, so);
    const sta::FixpointResult fix =
        sta::compute_departures(view, ShiftTable(sim_sch), zeros(circuit));
    if (sim.converged != fix.converged) {
      fail(CheckKind::kSimAgreement,
           std::string("simulation ") + (sim.converged ? "reached" : "missed") +
               " steady state but the fixpoint " + flag_string(fix));
    } else if (sim.converged) {
      const VecDiff d = max_abs_diff(sim.departure, fix.departure);
      if (d.amount > kDepartureTol) {
        fail(CheckKind::kSimAgreement,
             "steady state differs from the fixpoint by " + fmt_time(d.amount, 9) +
                 " at element '" + circuit.element(d.element).name + "'");
      }
    }
  }

  // Warm re-analysis vs a fresh analysis after a random perturbation, at a
  // relaxed schedule. With kSlackFactor > 1 + kMaxPerturb every loop keeps
  // strictly negative gain (a path's delay is at most its loop's sum, which
  // the optimal Tc covers), so every solve must stay convergent.
  if (circuit.num_paths() > 0) {
    std::mt19937_64 rng(rng_seed);
    std::uniform_int_distribution<int> pick_path(0, circuit.num_paths() - 1);
    std::uniform_real_distribution<double> magnitude(0.05, kMaxPerturb);
    const int p = pick_path(rng);
    const ClockSchedule relaxed = lp->schedule.scaled(kSlackFactor);
    const sta::FixpointResult before =
        sta::compute_departures(view, ShiftTable(relaxed), zeros(circuit));
    if (before.converged) {
      Circuit mutated = circuit;
      const double old_delay = circuit.path(p).delay;
      const double delta = magnitude(rng) * std::max(old_delay, 1.0);
      const bool increase = (rng() & 1) != 0;
      const double new_delay =
          increase ? old_delay + delta
                   : std::max(circuit.path(p).min_delay, old_delay - delta);
      mutated.set_path_delay(p, new_delay);
      const std::string what = "path " + circuit.element(circuit.path(p).from).name + "->" +
                               circuit.element(circuit.path(p).to).name + " delay " +
                               fmt_time(old_delay, 6) + " -> " + fmt_time(new_delay, 6);

      // The perturbation driven through an AnalysisSession: cold, warm
      // after the edit, cold again after the undo — each leg bit-identical
      // to a fresh check_schedule of the corresponding circuit.
      sta::AnalysisOptions an;
      an.check_hold = true;
      sta::AnalysisSession session(circuit, relaxed, an);
      std::string diff =
          diff_reports(session.analyze(), sta::check_schedule(circuit, relaxed, an));
      if (!diff.empty()) {
        fail(CheckKind::kSessionAgreement, what + ": cold session: " + diff);
      }
      session.content_fingerprint();  // from here on the sum is kept per edit
      const size_t mark = session.mark();
      session.set_path_delay(p, new_delay);
      diff = diff_reports(session.analyze(), sta::check_schedule(mutated, relaxed, an));
      if (!diff.empty()) {
        fail(CheckKind::kSessionAgreement, what + ": session after edit: " + diff);
      }
      if (!fingerprint_matches(session, mutated, relaxed)) {
        fail(CheckKind::kSessionAgreement, what + ": session fingerprint after edit");
      }
      // A walk of warm-eligible edits on top, alternating small path raises
      // with setup/hold/skew moves either way: the warm refresh carries its
      // report from one analyze to the next, so each step is compared.
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      const double tc = relaxed.cycle;
      for (int step = 0; step < 8; ++step) {
        std::string edit;
        if (step % 2 == 0) {
          const int q = pick_path(rng);
          const double d = mutated.path(q).delay;
          const double raised = d + (0.001 + 0.004 * unit(rng)) * std::max(d, 1.0);
          session.set_path_delay(q, raised);
          mutated.set_path_delay(q, raised);
          edit = "raise path " + std::to_string(q);
        } else {
          const int i = static_cast<int>(rng() % static_cast<uint64_t>(circuit.num_elements()));
          Element& e = mutated.element(i);
          const double move = (unit(rng) - 0.5) * 0.04 * tc;
          switch (rng() % 3) {
            case 0:
              e.setup = std::max(0.0, e.setup + move);
              session.set_element_setup(i, e.setup);
              edit = "setup of " + e.name;
              break;
            case 1:
              e.hold = std::max(0.0, e.hold + move);
              session.set_element_hold(i, e.hold);
              edit = "hold of " + e.name;
              break;
            default:
              e.skew = std::max(0.0, e.skew + move / 2.0);
              session.set_element_skew(i, e.skew);
              edit = "skew of " + e.name;
              break;
          }
        }
        diff = diff_reports(session.analyze(), sta::check_schedule(mutated, relaxed, an));
        if (!diff.empty()) {
          fail(CheckKind::kSessionAgreement,
               what + ": walk step " + std::to_string(step) + " (" + edit + "): " + diff);
          break;
        }
      }
      if (!fingerprint_matches(session, mutated, relaxed)) {
        fail(CheckKind::kSessionAgreement, what + ": session fingerprint after the walk");
      }
      session.undo_to(mark);
      diff = diff_reports(session.analyze(), sta::check_schedule(circuit, relaxed, an));
      if (!diff.empty()) {
        fail(CheckKind::kSessionAgreement, what + ": session after undo: " + diff);
      }
      if (!fingerprint_matches(session, circuit, relaxed)) {
        fail(CheckKind::kSessionAgreement, what + ": session fingerprint after undo");
      }
    }
  }

  // Skew leg: the whole agreement matrix again, on a copy with deterministic
  // random per-latch skews. Every engine reads Element::skew through its own
  // path (LP rows, difference constraints, the view's fused margins, the
  // simulator's setup checks), so any disagreement about what skew means
  // surfaces here. One level deep only: the inner run has check_skew off.
  if (options.check_skew && circuit.num_elements() > 0) {
    std::mt19937_64 skew_rng(rng_seed ^ 0x5ce3a11u);
    std::uniform_real_distribution<double> skew_mag(0.0, options.skew_magnitude * tc_scale);
    Circuit skewed = circuit;
    for (int i = 0; i < skewed.num_elements(); ++i) {
      skewed.element(i).skew = skew_mag(skew_rng);
    }
    DifferentialOptions inner = options;
    inner.check_skew = false;
    inner.inject_solver_skew = 0.0;
    const DifferentialReport inner_rep = check_circuit(skewed, rng_seed, inner);
    for (const CheckFailure& f : inner_rep.failures) {
      fail(CheckKind::kSkewAgreement,
           std::string("[skewed: ") + check::to_string(f.kind) + "] " + f.detail);
    }

    // AnalysisSession route to the same skewed circuit: cold on the base
    // circuit, per-latch set_element_skew edits (a warm, slack-only path),
    // then undo back — each state bit-identical to a fresh check_schedule.
    sta::AnalysisOptions an;
    an.check_hold = true;
    const ClockSchedule relaxed = lp->schedule.scaled(kSlackFactor);
    sta::AnalysisSession session(circuit, relaxed, an);
    std::string diff =
        diff_reports(session.analyze(), sta::check_schedule(circuit, relaxed, an));
    if (!diff.empty()) {
      fail(CheckKind::kSkewAgreement, "session before skew edits: " + diff);
    }
    session.content_fingerprint();  // from here on the sum is kept per edit
    const size_t mark = session.mark();
    for (int i = 0; i < circuit.num_elements(); ++i) {
      session.set_element_skew(i, skewed.element(i).skew);
    }
    diff = diff_reports(session.analyze(), sta::check_schedule(skewed, relaxed, an));
    if (!diff.empty()) {
      fail(CheckKind::kSkewAgreement, "session after skew edits: " + diff);
    }
    if (!fingerprint_matches(session, skewed, relaxed)) {
      fail(CheckKind::kSkewAgreement, "session fingerprint after skew edits");
    }
    session.undo_to(mark);
    diff = diff_reports(session.analyze(), sta::check_schedule(circuit, relaxed, an));
    if (!diff.empty()) {
      fail(CheckKind::kSkewAgreement, "session after skew undo: " + diff);
    }
    if (!fingerprint_matches(session, circuit, relaxed)) {
      fail(CheckKind::kSkewAgreement, "session fingerprint after skew undo");
    }
  }

  return rep;
}

}  // namespace mintc::check
