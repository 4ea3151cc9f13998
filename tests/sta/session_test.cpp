// AnalysisSession unit tests: the correctness contract (warm/cold/cached
// analyze() bit-identical to a fresh check_schedule of the current state),
// the undo log, derating composition, and the counter semantics.
#include "sta/session.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "circuits/example1.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "opt/mlp.h"
#include "sta/analysis.h"
#include "sta/corners.h"

namespace mintc::sta {
namespace {

// Exact ==, not NEAR: the session must reproduce a fresh analysis to the
// last bit no matter which path (cache, warm fixpoint, cold solve) it took.
void expect_reports_identical(const TimingReport& got, const TimingReport& want) {
  ASSERT_EQ(got.feasible, want.feasible);
  ASSERT_EQ(got.schedule_ok, want.schedule_ok);
  ASSERT_EQ(got.converged, want.converged);
  ASSERT_EQ(got.setup_ok, want.setup_ok);
  ASSERT_EQ(got.hold_ok, want.hold_ok);
  ASSERT_EQ(got.elements.size(), want.elements.size());
  for (size_t i = 0; i < want.elements.size(); ++i) {
    EXPECT_EQ(got.elements[i].departure, want.elements[i].departure) << "element " << i;
    EXPECT_EQ(got.elements[i].arrival, want.elements[i].arrival) << "element " << i;
    EXPECT_EQ(got.elements[i].setup_slack, want.elements[i].setup_slack) << "element " << i;
    EXPECT_EQ(got.elements[i].hold_slack, want.elements[i].hold_slack) << "element " << i;
  }
  ASSERT_EQ(got.fixpoint.departure.size(), want.fixpoint.departure.size());
  for (size_t i = 0; i < want.fixpoint.departure.size(); ++i) {
    EXPECT_EQ(got.fixpoint.departure[i], want.fixpoint.departure[i]) << "departure " << i;
  }
  EXPECT_EQ(got.worst_setup_slack, want.worst_setup_slack);
  EXPECT_EQ(got.worst_setup_element, want.worst_setup_element);
  EXPECT_EQ(got.worst_hold_slack, want.worst_hold_slack);
  EXPECT_EQ(got.worst_hold_element, want.worst_hold_element);
}

struct Fixture {
  Circuit circuit;
  ClockSchedule schedule;  // relaxed optimum: all loops have negative gain
  AnalysisOptions options;

  explicit Fixture(Circuit c) : circuit(std::move(c)) {
    const auto mlp = opt::minimize_cycle_time(circuit);
    EXPECT_TRUE(mlp);
    schedule = mlp->schedule.scaled(1.25);
    options.check_hold = true;
  }

  TimingReport fresh(const Circuit& c, const ClockSchedule& s) const {
    return check_schedule(c, s, options);
  }
};

TEST(AnalysisSession, ColdAnalyzeMatchesCheckSchedule) {
  const Fixture f(circuits::example1(80.0));
  AnalysisSession session(f.circuit, f.schedule, f.options);
  expect_reports_identical(session.analyze(), f.fresh(f.circuit, f.schedule));
  EXPECT_EQ(session.counters().analyses, 1);
  EXPECT_EQ(session.counters().warm_hits, 0);
  EXPECT_EQ(session.counters().cold_fallbacks, 0);  // first solve is not a fallback
}

TEST(AnalysisSession, CachedReportCountsAsWarmHit) {
  const Fixture f(circuits::example1(80.0));
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  session.analyze();  // nothing changed: served from cache
  EXPECT_EQ(session.counters().analyses, 2);
  EXPECT_EQ(session.counters().warm_hits, 1);
  EXPECT_EQ(session.counters().invalidations, 0);
}

TEST(AnalysisSession, DelayIncreaseWarmStartsAndBitMatches) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  const double d0 = f.circuit.path(0).delay;
  session.set_path_delay(0, d0 * 1.05);
  Circuit mutated = f.circuit;
  mutated.set_path_delay(0, d0 * 1.05);
  expect_reports_identical(session.analyze(), f.fresh(mutated, f.schedule));
  EXPECT_EQ(session.counters().warm_hits, 1);
  EXPECT_EQ(session.counters().cold_fallbacks, 0);
  EXPECT_EQ(session.counters().invalidations, 1);
}

TEST(AnalysisSession, DelayDecreaseFallsBackColdAndBitMatches) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  const double d0 = f.circuit.path(0).delay;
  session.set_path_delay(0, d0 * 0.5);
  Circuit mutated = f.circuit;
  mutated.set_path_delay(0, d0 * 0.5);
  expect_reports_identical(session.analyze(), f.fresh(mutated, f.schedule));
  EXPECT_EQ(session.counters().warm_hits, 0);
  EXPECT_EQ(session.counters().cold_fallbacks, 1);
}

TEST(AnalysisSession, ScheduleShrinkWarmStartsGrowFallsBack) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();

  // Scaling the schedule DOWN scales every (negative) shift up toward zero:
  // monotone-nondecreasing, warm-start eligible. 1.25 * 0.99 stays above
  // the optimum, so the fixpoint still converges.
  const ClockSchedule shrunk = f.schedule.scaled(0.99);
  session.set_schedule(shrunk);
  expect_reports_identical(session.analyze(), f.fresh(f.circuit, shrunk));
  EXPECT_EQ(session.counters().warm_hits, 1);
  EXPECT_EQ(session.counters().cold_fallbacks, 0);

  // Scaling UP shrinks cross-cycle shifts: cold fallback, same contract.
  const ClockSchedule grown = f.schedule.scaled(1.1);
  session.set_schedule(grown);
  expect_reports_identical(session.analyze(), f.fresh(f.circuit, grown));
  EXPECT_EQ(session.counters().cold_fallbacks, 1);
}

TEST(AnalysisSession, DeratingMatchesDerateComposedFromPristine) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  // Corners compose from the pristine reference, not cumulatively: applying
  // slow then fast must equal derate(original, fast).
  session.apply_derating(1.1, 1.1);
  session.analyze();
  session.apply_derating(0.9, 0.9);
  const Corner fast{"fast", 0.9, 0.9};
  expect_reports_identical(session.analyze(), f.fresh(derate(f.circuit, fast), f.schedule));
}

TEST(AnalysisSession, StructuralEditRebuildsAndBitMatches) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  session.remove_path(0);
  expect_reports_identical(session.analyze(), f.fresh(session.circuit(), f.schedule));
  EXPECT_EQ(session.counters().cold_fallbacks, 1);

  session.remove_element(0);
  expect_reports_identical(session.analyze(), f.fresh(session.circuit(), f.schedule));
  EXPECT_EQ(session.counters().cold_fallbacks, 2);
}

TEST(AnalysisSession, UndoRoundTripRestoresEverythingBitwise) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  const TimingReport original = session.analyze();  // copy

  const size_t mark = session.mark();
  session.set_path_delay(1, f.circuit.path(1).delay + 0.7);
  session.set_element_dq(0, f.circuit.element(0).dq + 0.3);
  session.set_schedule(f.schedule.scaled(1.3));
  session.remove_path(0);
  session.remove_element(0);
  session.analyze();
  session.undo_to(mark);

  EXPECT_EQ(session.circuit().num_paths(), f.circuit.num_paths());
  EXPECT_EQ(session.circuit().num_elements(), f.circuit.num_elements());
  for (int p = 0; p < f.circuit.num_paths(); ++p) {
    EXPECT_EQ(session.circuit().path(p).delay, f.circuit.path(p).delay) << "path " << p;
    EXPECT_EQ(session.circuit().path(p).from, f.circuit.path(p).from) << "path " << p;
    EXPECT_EQ(session.circuit().path(p).to, f.circuit.path(p).to) << "path " << p;
  }
  expect_reports_identical(session.analyze(), original);
}

TEST(AnalysisSession, HoldVectorReusedAcrossMaxSideEdits) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  // A max-delay-only edit leaves the hold-side min-fixpoint untouched.
  session.set_path_delay(0, f.circuit.path(0).delay * 1.02);
  session.analyze();
  EXPECT_GE(session.counters().hold_reuses, 1);

  // A min-delay edit invalidates it.
  const long reuses = session.counters().hold_reuses;
  session.set_path_min_delay(0, f.circuit.path(0).min_delay * 0.5);
  Circuit mutated = f.circuit;
  mutated.set_path_delay(0, f.circuit.path(0).delay * 1.02);
  mutated.set_path_min_delay(0, f.circuit.path(0).min_delay * 0.5);
  expect_reports_identical(session.analyze(), f.fresh(mutated, f.schedule));
  EXPECT_EQ(session.counters().hold_reuses, reuses);
}

TEST(AnalysisSession, SetterNoOpsDoNotInvalidate) {
  const Fixture f(circuits::example1(80.0));
  AnalysisSession session(f.circuit, f.schedule, f.options);
  session.analyze();
  session.set_path_delay(0, f.circuit.path(0).delay);  // unchanged value
  session.set_schedule(f.schedule);                    // identical schedule
  session.analyze();
  EXPECT_EQ(session.counters().invalidations, 0);
  EXPECT_EQ(session.counters().warm_hits, 1);  // pure cache hit
}

// Every field the content fingerprint covers, rendered bit-exactly (%a), so
// two states compare equal here iff their content is identical.
std::string content_text(const AnalysisSession& s) {
  const Circuit& c = s.circuit();
  std::string out = c.name() + "/" + std::to_string(c.num_phases());
  char buf[256];
  for (const Element& e : c.elements()) {
    std::snprintf(buf, sizeof buf, "|E %d %d %a %a %a %a %a ", static_cast<int>(e.kind),
                  e.phase, e.setup, e.hold, e.dq, e.dq_min, e.skew);
    out += buf + e.name;
  }
  for (const CombPath& p : c.paths()) {
    std::snprintf(buf, sizeof buf, "|P %d %d %a %a ", p.from, p.to, p.delay, p.min_delay);
    out += buf + p.label;
  }
  const ClockSchedule& sch = s.schedule();
  std::snprintf(buf, sizeof buf, "|S %a", sch.cycle);
  out += buf;
  for (const std::vector<double>* v : {&sch.start, &sch.width}) {
    for (const double x : *v) {
      std::snprintf(buf, sizeof buf, " %a", x);
      out += buf;
    }
  }
  return out;
}

// content_fingerprint() is kept incrementally: every applier swaps the
// edited item's term in a running sum, and structural edits recompute it.
// After any mix of edits and undos it must equal the fingerprint a fresh
// session computes from scratch, and it must move iff the content moved.
TEST(AnalysisSession, FingerprintTracksRandomEditsAndUndos) {
  circuits::SyntheticParams params;
  params.num_phases = 3;
  params.num_stages = 6;
  params.latches_per_stage = 4;
  const Circuit inputs[] = {circuits::gaas_datapath(),
                            circuits::synthetic_circuit(params, 41)};
  for (const Circuit& input : inputs) {
    const Fixture f(input);
    AnalysisSession session(f.circuit, f.schedule, f.options);
    std::mt19937_64 rng(7);
    const auto uniform = [&](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const auto pick = [&](int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng); };
    std::vector<size_t> marks;
    std::uint64_t fp = session.content_fingerprint();
    std::string text = content_text(session);
    for (int step = 0; step < 600; ++step) {
      const Circuit& c = session.circuit();
      const int kind = pick(14);
      const int p = c.num_paths() > 0 ? pick(c.num_paths()) : -1;
      const int i = pick(c.num_elements());
      if (pick(4) == 0) marks.push_back(session.mark());
      switch (kind) {
        case 0:
          if (p >= 0) session.set_path_delay(p, c.path(p).min_delay + uniform(0.0, 3.0));
          break;
        case 1:
          if (p >= 0) session.set_path_min_delay(p, c.path(p).delay * uniform(0.0, 1.0));
          break;
        case 2:
          if (p >= 0) {
            const double d = uniform(0.5, 4.0);
            session.set_path_delays(p, d, d * uniform(0.0, 1.0));
          }
          break;
        case 3:
          if (p >= 0) session.set_path_label(p, "L" + std::to_string(pick(5)));
          break;
        case 4:
          session.set_element_dq(i, uniform(0.1, 2.0));
          break;
        case 5:  // includes switching back to tracking dq (-1)
          session.set_element_dq_min(i, pick(3) == 0 ? -1.0 : uniform(0.0, 1.0));
          break;
        case 6:
          session.set_element_setup(i, uniform(0.0, 1.0));
          break;
        case 7:
          session.set_element_hold(i, uniform(0.0, 0.5));
          break;
        case 8:
          session.set_element_skew(i, uniform(0.0, 0.3));
          break;
        case 9:
          session.set_schedule(f.schedule.scaled(uniform(0.9, 1.3)));
          break;
        case 10:
          if (session.derating_allowed()) {
            session.apply_derating(uniform(0.9, 1.2), uniform(0.8, 1.0));
          }
          break;
        case 11:
          if (c.num_paths() > 4 && pick(3) == 0) session.remove_path(p);
          break;
        case 12:
          if (c.num_elements() > 4 && pick(3) == 0) session.remove_element(i);
          break;
        default:
          if (!marks.empty()) {
            const size_t m = marks[static_cast<size_t>(pick(static_cast<int>(marks.size())))];
            session.undo_to(m);
            while (!marks.empty() && marks.back() > m) marks.pop_back();
          } else if (session.mark() > 0) {
            session.undo();
          }
          break;
      }
      const std::uint64_t now = session.content_fingerprint();
      ASSERT_EQ(now, AnalysisSession(session.circuit(), session.schedule()).content_fingerprint())
          << input.name() << " step " << step << " kind " << kind;
      const std::string now_text = content_text(session);
      if (now_text == text) {
        EXPECT_EQ(now, fp) << input.name() << " step " << step << " kind " << kind;
      } else {
        EXPECT_NE(now, fp) << input.name() << " step " << step << " kind " << kind;
      }
      fp = now;
      text = now_text;
    }
    // Back to the start: the construction-time fingerprint returns.
    session.undo_to(0);
    EXPECT_EQ(session.content_fingerprint(),
              AnalysisSession(f.circuit, f.schedule).content_fingerprint());
  }
}

// The undo log holds 16-byte records and parks labels, schedules, removed
// paths and removed elements on per-kind side stacks. A random mix of every
// record kind, rewound to random marks on the way and then to each
// remaining mark in turn, must give back the circuit, the schedule and the
// fingerprint bit for bit at every mark.
TEST(AnalysisSession, UndoToEveryMarkRestoresContentBitwise) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  std::mt19937_64 rng(11);
  const auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const auto pick = [&](int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng); };
  struct Snapshot {
    size_t mark;
    std::string text;
    std::uint64_t fingerprint;
  };
  std::vector<Snapshot> snapshots;
  const auto expect_at = [&](const Snapshot& snap, int step) {
    ASSERT_EQ(session.mark(), snap.mark) << "step " << step;
    EXPECT_EQ(content_text(session), snap.text) << "step " << step;
    EXPECT_EQ(session.content_fingerprint(), snap.fingerprint) << "step " << step;
  };
  int removals = 0;
  int rewinds = 0;
  for (int step = 0; step < 500; ++step) {
    if (snapshots.empty() || pick(3) == 0) {
      snapshots.push_back({session.mark(), content_text(session), session.content_fingerprint()});
    }
    const Circuit& c = session.circuit();
    const int p = pick(c.num_paths());
    const int i = pick(c.num_elements());
    switch (pick(10)) {
      case 0:
        session.set_path_delay(p, c.path(p).min_delay + uniform(0.0, 3.0));
        break;
      case 1:
        session.set_path_min_delay(p, c.path(p).delay * uniform(0.0, 1.0));
        break;
      case 2: {
        const auto letter = static_cast<char>('a' + pick(26));
        session.set_path_label(p, std::string(static_cast<size_t>(pick(40)), letter));
        break;
      }
      case 3:
        session.set_element_dq_min(i, pick(3) == 0 ? -1.0 : uniform(0.0, 1.0));
        break;
      case 4:
        session.set_element_skew(i, uniform(0.0, 0.3));
        break;
      case 5:
        session.set_schedule(f.schedule.scaled(uniform(0.9, 1.3)));
        break;
      case 6:
        if (c.num_paths() > 8) {
          session.remove_path(p);
          ++removals;
        }
        break;
      case 7:
        if (c.num_elements() > 8) {
          session.remove_element(i);
          ++removals;
        }
        break;
      default: {
        const size_t at = static_cast<size_t>(pick(static_cast<int>(snapshots.size())));
        session.undo_to(snapshots[at].mark);
        expect_at(snapshots[at], step);
        snapshots.resize(at + 1);
        ++rewinds;
        break;
      }
    }
  }
  EXPECT_GT(removals, 10);
  EXPECT_GT(rewinds, 10);
  while (!snapshots.empty()) {
    session.undo_to(snapshots.back().mark);
    expect_at(snapshots.back(), -1);
    snapshots.pop_back();
  }
  ASSERT_EQ(session.mark(), 0u);
  expect_reports_identical(session.analyze(), f.fresh(f.circuit, f.schedule));
}

// forget_before drops the oldest records, and with them the payloads at the
// fronts of the side stacks. Marks keep their numbers, and every later mark
// must still rewind bit for bit, edits made after the forget included.
TEST(AnalysisSession, ForgetBeforeKeepsEveryLaterMarkExact) {
  const Fixture f(circuits::gaas_datapath());
  AnalysisSession session(f.circuit, f.schedule, f.options);
  std::mt19937_64 rng(12);
  const auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const auto pick = [&](int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng); };
  struct Snapshot {
    size_t mark;
    std::string text;
    std::uint64_t fingerprint;
  };
  std::vector<Snapshot> snapshots;
  const auto walk = [&](int steps) {
    for (int step = 0; step < steps; ++step) {
      snapshots.push_back({session.mark(), content_text(session), session.content_fingerprint()});
      const Circuit& c = session.circuit();
      const int p = pick(c.num_paths());
      const int i = pick(c.num_elements());
      switch (pick(6)) {
        case 0:
          session.set_path_delay(p, c.path(p).min_delay + uniform(0.0, 3.0));
          break;
        case 1:
          session.set_path_label(p, std::string(static_cast<size_t>(1 + pick(20)), 'x'));
          break;
        case 2:
          session.set_element_skew(i, uniform(0.0, 0.3));
          break;
        case 3:
          session.set_schedule(f.schedule.scaled(uniform(0.9, 1.3)));
          break;
        case 4:
          if (c.num_paths() > 8) session.remove_path(p);
          break;
        default:
          if (c.num_elements() > 8) session.remove_element(i);
          break;
      }
    }
  };
  walk(120);
  const size_t keep = snapshots.size() / 2;
  const size_t end = session.mark();
  session.forget_before(snapshots[keep].mark);
  ASSERT_EQ(session.mark(), end);
  walk(60);
  while (snapshots.size() > keep) {
    const Snapshot& snap = snapshots.back();
    session.undo_to(snap.mark);
    ASSERT_EQ(session.mark(), snap.mark);
    EXPECT_EQ(content_text(session), snap.text) << "mark " << snap.mark;
    EXPECT_EQ(session.content_fingerprint(), snap.fingerprint) << "mark " << snap.mark;
    snapshots.pop_back();
  }
  // Nothing before the oldest kept mark is left to undo; editing on from it
  // numbers the new records after it.
  const size_t oldest = session.mark();
  session.set_path_delay(0, session.circuit().path(0).delay + 1.0);
  EXPECT_EQ(session.mark(), oldest + 1);
  session.undo();
  expect_reports_identical(session.analyze(),
                           f.fresh(session.circuit(), session.schedule()));
}

// Warm re-analysis cases no other session test covers: the warm path must
// stay local, and must still report a runaway loop.

TEST(Incremental, TouchesFewerNodesThanFullSolve) {
  // A wide synthetic circuit: bumping one path must not re-visit everything.
  circuits::SyntheticParams p;
  p.num_phases = 2;
  p.num_stages = 10;
  p.latches_per_stage = 4;
  const Circuit c = circuits::synthetic_circuit(p, 12);
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r.has_value());
  const ClockSchedule sch = r->schedule.scaled(1.3);  // roomy
  AnalysisSession session(c, sch);
  const long cold_updates = static_cast<long>(session.analyze().fixpoint.updates);
  session.set_path_delay(0, c.path(0).delay + 1.0);  // small bump, localized effect
  const TimingReport& warm = session.analyze();
  EXPECT_EQ(session.counters().warm_hits, 1);
  EXPECT_LT(warm.fixpoint.updates, cold_updates);
  Circuit mutated = c;
  mutated.set_path_delay(0, c.path(0).delay + 1.0);
  expect_reports_identical(warm, check_schedule(mutated, sch));
}

TEST(Incremental, DivergenceDetectedOnRunawayIncrease) {
  Circuit c("race", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 1, 1.0, 2.0);
  c.add_path("A", "B", 1.0);
  c.add_path("B", "A", 1.0);
  const ClockSchedule sch(10.0, {0.0}, {10.0});
  AnalysisSession session(c, sch);
  ASSERT_TRUE(session.analyze().converged);  // feasible: tiny delays
  session.set_path_delay(0, 30.0);  // now the loop gains every traversal
  const TimingReport& rep = session.analyze();
  EXPECT_FALSE(rep.converged);
  EXPECT_TRUE(rep.fixpoint.diverged);
  c.set_path_delay(0, 30.0);
  expect_reports_identical(rep, check_schedule(c, sch));
}

}  // namespace
}  // namespace mintc::sta
