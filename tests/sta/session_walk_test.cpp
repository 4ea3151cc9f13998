// Warm walks through an AnalysisSession. A warm analyze rewrites only the
// records in its edit's cone and carries every other record, the worst-slack
// summaries and the violation counts over from the analyze before it, so a
// record the refresh forgets shows only steps later. These tests therefore
// walk many warm-eligible edits in a row and compare every step, bit for
// bit, against a fresh sta::check_schedule of the session's state.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "circuits/synthetic.h"
#include "obs/metrics.h"
#include "opt/graph_solver.h"
#include "opt/mlp.h"
#include "sta/analysis.h"
#include "sta/session.h"

namespace mintc::sta {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The first field where `got` and `want` differ, or "" when every flag, every
// ElementTiming field, the departure vector and both worst records match
// bit for bit.
std::string first_difference(const TimingReport& got, const TimingReport& want) {
  if (got.feasible != want.feasible || got.schedule_ok != want.schedule_ok ||
      got.converged != want.converged || got.setup_ok != want.setup_ok ||
      got.hold_ok != want.hold_ok) {
    return "ok flags";
  }
  if (got.setup_violations != want.setup_violations) return "setup_violations";
  if (got.hold_violations != want.hold_violations) return "hold_violations";
  if (got.elements.size() != want.elements.size()) return "element count";
  for (size_t i = 0; i < want.elements.size(); ++i) {
    const ElementTiming& g = got.elements[i];
    const ElementTiming& w = want.elements[i];
    const std::string at = " of element " + std::to_string(i);
    if (!same_bits(g.departure, w.departure)) return "departure" + at;
    if (!same_bits(g.arrival, w.arrival)) return "arrival" + at;
    if (!same_bits(g.setup_slack, w.setup_slack)) return "setup_slack" + at;
    if (!same_bits(g.hold_slack, w.hold_slack)) return "hold_slack" + at;
  }
  if (got.fixpoint.departure.size() != want.fixpoint.departure.size()) return "departure size";
  for (size_t i = 0; i < want.fixpoint.departure.size(); ++i) {
    if (!same_bits(got.fixpoint.departure[i], want.fixpoint.departure[i])) {
      return "fixpoint departure " + std::to_string(i);
    }
  }
  if (got.worst_setup_element != want.worst_setup_element) return "worst_setup_element";
  if (!same_bits(got.worst_setup_slack, want.worst_setup_slack)) return "worst_setup_slack";
  if (got.worst_hold_element != want.worst_hold_element) return "worst_hold_element";
  if (!same_bits(got.worst_hold_slack, want.worst_hold_slack)) return "worst_hold_slack";
  return {};
}

// One warm-eligible step of a walk: raise a path delay or a latch's dq,
// move a setup, hold or skew either way, or undo the newest edit when it was
// one of those three (slack-only, so the undo stays warm too). Half the
// setup, hold and skew edits go to the element holding the worst slack of
// `last`, the session's latest report, which is what moves worst records
// and their ties.
class Walker {
 public:
  Walker(AnalysisSession& session, std::uint64_t seed) : s_(session), rng_(seed) {}

  std::string step(const TimingReport& last) {
    const Circuit& c = s_.circuit();
    const double tc = s_.schedule().cycle;
    const size_t mark = s_.mark();
    std::string what;
    bool param = false;
    switch (rng_() % 8) {
      case 0:
      case 1:
      case 2: {
        const int p = pick(c.num_paths());
        const double d = c.path(p).delay;
        s_.set_path_delay(p, d + (0.001 + 0.01 * unit()) * std::max(d, 1.0));
        what = "raise path " + std::to_string(p);
        break;
      }
      case 3: {
        const int i = pick(c.num_elements());
        s_.set_element_dq(i, c.element(i).dq + 0.01 * unit() * tc);
        what = "raise dq " + std::to_string(i);
        break;
      }
      case 4: {
        const int i = pick_or(last.worst_setup_element, c.num_elements());
        s_.set_element_setup(i, std::max(0.0, c.element(i).setup + (unit() - 0.5) * 0.05 * tc));
        what = "setup " + std::to_string(i);
        param = true;
        break;
      }
      case 5: {
        const int i = pick_or(last.worst_hold_element, c.num_elements());
        s_.set_element_hold(i, std::max(0.0, c.element(i).hold + (unit() - 0.5) * 0.05 * tc));
        what = "hold " + std::to_string(i);
        param = true;
        break;
      }
      case 6: {
        const int i = pick_or(last.worst_setup_element, c.num_elements());
        s_.set_element_skew(i, std::max(0.0, c.element(i).skew + (unit() - 0.5) * 0.02 * tc));
        what = "skew " + std::to_string(i);
        param = true;
        break;
      }
      default: {
        if (!param_top_.empty() && param_top_.back()) {
          s_.undo();
          param_top_.pop_back();
          return "undo";
        }
        const int p = pick(c.num_paths());
        s_.set_path_delay(p, c.path(p).delay + 0.001 * std::max(c.path(p).delay, 1.0));
        what = "nudge path " + std::to_string(p);
        break;
      }
    }
    if (s_.mark() > mark) param_top_.push_back(param);
    return what;
  }

 private:
  int pick(int n) { return static_cast<int>(rng_() % static_cast<std::uint64_t>(n)); }
  int pick_or(int worst, int n) { return worst >= 0 && (rng_() & 1) != 0 ? worst : pick(n); }
  double unit() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }

  AnalysisSession& s_;
  std::mt19937_64 rng_;
  std::vector<bool> param_top_;  // per logged edit: was it setup/hold/skew
};

// 200 fuzzer circuits, about 40 warm-eligible steps each. Even seeds run at
// the MLP schedule x1.25; odd ones at x1.0-1.02, where zero-slack ties are
// common and raises move departures (or tip a loop positive, which the
// session answers with a cold fallback).
TEST(AnalysisSession, WarmWalksBitMatchCheckScheduleAtEveryStep) {
  long steps = 0;
  long refreshed = 0;    // steps served by the cone refresh
  long raised = 0;       // ... whose fixpoint moved some departure
  long tie_moves = 0;    // steps whose worst element moved at an equal slack
  int walked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Circuit circuit = check::fuzz_circuit(seed);
    const auto mlp = opt::minimize_cycle_time(circuit);
    if (!mlp || circuit.num_paths() == 0) continue;
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull);
    const double scale =
        seed % 2 == 0 ? 1.25 : 1.0 + 0.02 * std::uniform_real_distribution<double>(0, 1)(rng);
    AnalysisOptions options;
    options.check_hold = true;
    AnalysisSession session(circuit, mlp->schedule.scaled(scale), options);
    TimingReport prev = session.analyze();
    Walker walker(session, rng());
    for (int step = 0; step < 40; ++step) {
      const long refreshes = session.counters().slack_refreshes;
      const long warm = session.counters().warm_hits;
      const std::string what = walker.step(prev);
      const TimingReport& got = session.analyze();
      const TimingReport want =
          check_schedule(session.circuit(), session.schedule(), options);
      ASSERT_EQ(first_difference(got, want), "")
          << "seed " << seed << " step " << step << " (" << what << ")";
      ++steps;
      if (session.counters().warm_hits > warm && session.counters().slack_refreshes > refreshes) {
        ++refreshed;
        if (got.fixpoint.departure != prev.fixpoint.departure) ++raised;
        if (got.worst_setup_element != prev.worst_setup_element &&
            got.worst_setup_slack == prev.worst_setup_slack) {
          ++tie_moves;
        }
        if (got.worst_hold_element != prev.worst_hold_element &&
            got.worst_hold_slack == prev.worst_hold_slack) {
          ++tie_moves;
        }
      }
      prev = got;
    }
    ++walked;
  }
  // Guard against walks that silently stopped exercising the refresh.
  EXPECT_GE(walked, 100);
  EXPECT_GE(refreshed * 2, steps) << refreshed << " of " << steps
                                  << " steps took the cone refresh";
  EXPECT_GE(raised, 100) << raised << " steps moved departures";
  EXPECT_GE(tie_moves, 5) << tie_moves << " steps moved a worst element along a tie";
}

// Ties go to the lowest index, whichever way the refresh reaches them: a
// rescan after the worst element's slack rose, or a fold when an undo puts a
// lower-index element back level with the worst.
TEST(AnalysisSession, WorstSlackTieGoesToTheLowestIndex) {
  // Four identical latches, two per phase, at a schedule loose enough that
  // every departure is 0: all four setup slacks tie.
  Circuit c("ties", 2);
  for (int i = 0; i < 4; ++i) c.add_latch("L" + std::to_string(i), i < 2 ? 1 : 2, 1.0, 1.0);
  c.add_path(0, 2, 5.0);
  c.add_path(1, 3, 5.0);
  c.add_path(2, 0, 5.0);
  c.add_path(3, 1, 5.0);
  AnalysisOptions options;
  options.check_hold = true;
  AnalysisSession session(c, symmetric_schedule(2, 100.0), options);
  const auto check = [&](int want_worst, const char* where) {
    const TimingReport& got = session.analyze();
    EXPECT_EQ(got.worst_setup_element, want_worst) << where;
    EXPECT_EQ(first_difference(got, check_schedule(session.circuit(), session.schedule(),
                                                   options)),
              "")
        << where;
  };
  check(0, "cold");
  session.set_element_setup(2, 1.5);
  check(2, "element 2 alone at the minimum");
  session.undo();
  check(0, "undo: the rise rescans");
  session.set_element_setup(0, 0.5);
  check(1, "element 0 rose: next lowest index");
  session.undo();
  check(0, "undo: element 0 ties the worst from below");
  EXPECT_GT(session.counters().slack_refreshes, 0);
}

// On eco_loop's 6000-latch design, a raise of one path refreshes the records
// of its cone only: the path's destination, each element whose departure
// rose, and their fan-out, computed here from two cold analyses.
TEST(AnalysisSession, OnePathRaiseRefreshesOnlyItsCone) {
  circuits::SyntheticParams params;
  params.num_phases = 3;
  params.num_stages = 240;
  params.latches_per_stage = 25;
  params.extra_long_edges = 240;
  const Circuit circuit = circuits::synthetic_circuit(params, 1101);
  const int l = circuit.num_elements();
  ASSERT_GE(l, 5000);
  const auto exact = opt::minimize_cycle_time_exact(circuit);
  ASSERT_TRUE(exact.has_value());
  const ClockSchedule schedule = exact->schedule.scaled(1.05);
  AnalysisOptions options;
  options.check_hold = true;
  AnalysisSession session(circuit, schedule, options);
  const TimingReport before = session.analyze();
  ASSERT_TRUE(before.converged);

  // Raise the edge that sets the latest departure, so the raise propagates.
  const TimingView view(circuit);
  const ShiftTable shifts(schedule);
  int dst = 0;
  for (int i = 1; i < l; ++i) {
    if (before.fixpoint.departure[static_cast<size_t>(i)] >
        before.fixpoint.departure[static_cast<size_t>(dst)]) {
      dst = i;
    }
  }
  ASSERT_GT(before.fixpoint.departure[static_cast<size_t>(dst)], 0.0);
  EdgeIndex critical = view.fanin_begin(dst);
  double best = -1e300;
  for (EdgeIndex e = view.fanin_begin(dst); e < view.fanin_end(dst); ++e) {
    const double term = before.fixpoint.departure[static_cast<size_t>(view.edge_src(e))] +
                        view.edge_max_const(e) + shifts.at(view.edge_shift(e));
    if (term > best) {
      best = term;
      critical = e;
    }
  }
  const int p = view.edge_path(critical);
  const double delay = circuit.path(p).delay + 0.05;

  const long refreshes = session.counters().slack_refreshes;
  session.set_path_delay(p, delay);
  const TimingReport& got = session.analyze();
  Circuit edited = circuit;
  edited.set_path_delay(p, delay);
  const TimingReport want = check_schedule(edited, schedule, options);
  ASSERT_EQ(first_difference(got, want), "");
  EXPECT_EQ(session.counters().cold_fallbacks, 0);

  std::set<int> cone = {dst};
  for (int i = 0; i < l; ++i) {
    if (want.fixpoint.departure[static_cast<size_t>(i)] ==
        before.fixpoint.departure[static_cast<size_t>(i)]) {
      continue;
    }
    cone.insert(i);
    for (const int q : circuit.fanout(i)) cone.insert(circuit.path(q).to);
  }
  EXPECT_GT(cone.size(), 1u) << "the raise should move departures";
  EXPECT_EQ(session.counters().slack_refreshes - refreshes, static_cast<long>(cone.size()));
  EXPECT_LT(cone.size() * 20, static_cast<size_t>(l)) << "a cone, not the circuit";
}

// A warm start onto a schedule that `min` just made tight can climb by ulps
// round a zero-gain loop. The warm solve's budget is a few sweeps' worth of
// updates, so such a climb ends at once and the session falls back cold.
// The walk is a clock-schedule design loop on one 32-latch design: set a
// path to its base delay times U(0.9, 1.1), solve Tc* exactly, and every
// fourth step apply the schedule and analyze. Which step climbs depends on
// the standard library's distributions; with libstdc++, step 1,735 ran the
// warm solve for 100,000 sweeps under the old budget of
// effective_max_sweeps(l) sweeps.
TEST(AnalysisSession, WarmSolveOntoAMinScheduleStopsWithinAFewSweeps) {
  circuits::SyntheticParams params;
  params.num_phases = 2;
  params.num_stages = 8;
  params.latches_per_stage = 4;
  params.extra_long_edges = 4;
  const Circuit base = circuits::synthetic_circuit(params, 3101);
  const Expected<opt::ExactSolveResult> first = opt::minimize_cycle_time_exact(base);
  ASSERT_TRUE(first);
  AnalysisOptions options;
  options.check_hold = true;
  AnalysisSession session(base, first->schedule, options);
  const long warm_budget = 8;  // sweeps: 8 * l updates

  obs::Counter& warm_sweeps = obs::MetricsRegistry::instance().counter(
      "fixpoint.sweeps", {{"scheme", "event-warm"}});
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<int> pick(0, base.num_paths() - 1);
  std::uniform_real_distribution<double> scale(0.9, 1.1);
  for (long step = 0; step < 2000; ++step) {
    const int p = pick(rng);
    session.set_path_delay(p, base.path(p).delay * scale(rng));
    const Expected<opt::ExactSolveResult> exact =
        opt::minimize_cycle_time_exact(session.circuit());
    ASSERT_TRUE(exact) << "step " << step;
    if (step % 4 != 3) continue;
    session.set_schedule(exact->schedule);
    const long before = warm_sweeps.value();
    const TimingReport& got = session.analyze();
    ASSERT_LE(warm_sweeps.value() - before, warm_budget) << "step " << step;
    if (step % 64 == 63) {
      ASSERT_EQ(first_difference(got, check_schedule(session.circuit(), exact->schedule,
                                                     options)),
                "")
          << "step " << step;
    }
  }
}

}  // namespace
}  // namespace mintc::sta
