// The differential oracle, the shrinker and the fuzzer — plus regression
// pins for the bugs the harness has already caught.
#include "check/differential.h"

#include <gtest/gtest.h>

#include "check/fuzzer.h"
#include "check/shrink.h"
#include "circuits/appendix_fig1.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "opt/graph_solver.h"
#include "opt/mlp.h"
#include "parser/lct.h"
#include "sta/analysis.h"
#include "sta/session.h"

namespace mintc::check {
namespace {

TEST(Differential, PassesOnEveryNamedCircuit) {
  for (const double d41 : {0.0, 40.0, 80.0, 120.0, 160.0}) {
    const DifferentialReport rep = check_circuit(circuits::example1(d41), 1);
    EXPECT_TRUE(rep.ok()) << "example1(" << d41 << "):\n" << rep.to_string();
    EXPECT_TRUE(rep.feasible);
  }
  for (const Circuit& c : {circuits::example2(), circuits::gaas_datapath(),
                           circuits::appendix_fig1()}) {
    const DifferentialReport rep = check_circuit(c, 2);
    EXPECT_TRUE(rep.ok()) << c.name() << ":\n" << rep.to_string();
    EXPECT_TRUE(rep.feasible);
  }
}

TEST(Differential, PassesOnFuzzBattery) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Circuit c = fuzz_circuit(seed);
    const DifferentialReport rep = check_circuit(c, seed * 31 + 7);
    EXPECT_TRUE(rep.ok()) << "fuzz seed " << seed << " (" << c.name() << "):\n"
                          << rep.to_string();
  }
}

TEST(Differential, InjectedSkewIsDetected) {
  DifferentialOptions opt;
  opt.inject_solver_skew = 0.5;  // half again on a ring path: Tc* must move
  const DifferentialReport rep = check_circuit(circuits::example1(80.0), 3, opt);
  EXPECT_TRUE(rep.has(CheckKind::kSolverAgreement)) << rep.to_string();
}

TEST(Differential, TextRoundTripCatchesNamesTheWriterCannotSpell) {
  // The writer emits element names bare, so a name with a space comes back
  // as an extra token and the text no longer parses.
  Circuit c("spaced", 1);
  c.add_latch("A B", 1, 1.0, 2.0);
  c.add_latch("C", 1, 1.0, 2.0);
  c.add_path(0, 1, 5.0);
  c.add_path(1, 0, 5.0);
  const DifferentialReport rep = check_circuit(c, 5);
  ASSERT_TRUE(rep.has(CheckKind::kTextRoundTrip)) << rep.to_string();
  EXPECT_EQ(rep.failures.front().kind, CheckKind::kTextRoundTrip);
  EXPECT_FALSE(check_circuit(circuits::example1(80.0), 5).has(CheckKind::kTextRoundTrip));
}

TEST(Differential, ConsistentInfeasibilityIsNotAFailure) {
  // A hold requirement no cycle time can buy (hold constraints are
  // Tc-independent on a same-phase pair): both engines must agree on
  // kInfeasible, which counts as agreement (feasible stays false).
  Circuit c("hold_infeasible", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  Element b;
  b.name = "B";
  b.phase = 1;
  b.setup = 1.0;
  b.dq = 2.0;
  b.hold = 1e6;
  c.add_element(b);
  c.add_path("A", "B", 5.0);
  DifferentialOptions opt;
  opt.generator.hold_constraints = true;
  const DifferentialReport rep = check_circuit(c, 4, opt);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_FALSE(rep.feasible);
}

// Regression: fuzz seed 26 (pre-fix). The binary search lands within `tol`
// of a critical loop; sliding the departures down from the Bellman-Ford
// point then sheds only ~tol per sweep and tripped the sweep limit, so the
// graph solver errored with kNotConverged on circuits the simplex solved.
// Fixed by iterating the final fixpoint up from zero instead.
TEST(GraphSolverRegression, NearCriticalLoopFromFuzzSeed26) {
  constexpr const char* kRepro = R"(
circuit synthetic_k3_s4_l2
phases 3
latch S0L0 phase=1 setup=1.347558 dq=3.820373
latch S0L1 phase=1 setup=1.347558 dq=3.820373
latch S1L0 phase=2 setup=1.347558 dq=3.820373
latch S1L1 phase=2 setup=1.347558 dq=3.820373
latch S2L0 phase=3 setup=1.347558 dq=3.820373
latch S2L1 phase=3 setup=1.347558 dq=3.820373
latch S3L0 phase=1 setup=1.347558 dq=3.820373
path S0L0 S1L0 delay=20
path S0L1 S1L1 delay=20
path S1L0 S2L0 delay=16
path S1L1 S2L1 delay=20
path S2L0 S3L0 delay=19
path S3L0 S0L0 delay=22
)";
  const auto c = parser::parse_circuit(kRepro);
  ASSERT_TRUE(c) << c.error().to_string();
  const auto lp = opt::minimize_cycle_time(*c);
  const auto bf = opt::minimize_cycle_time_graph(*c);
  ASSERT_TRUE(lp) << lp.error().to_string();
  ASSERT_TRUE(bf) << bf.error().to_string();
  EXPECT_NEAR(bf->min_cycle, lp->min_cycle, 1e-4);
  const DifferentialReport rep = check_circuit(*c, 26);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// The graph solver pinned to the simplex optimum across the whole named
// circuit collection plus a synthetic sweep (beyond graph_solver_test's
// spot checks, this covers the example1 delay family against the LP
// directly rather than the published closed form).
TEST(GraphSolverRegression, PinsToSimplexOnEveryCircuitFamily) {
  std::vector<Circuit> all;
  for (const double d41 : {0.0, 30.0, 60.0, 80.0, 100.0, 140.0, 160.0}) {
    all.push_back(circuits::example1(d41));
  }
  all.push_back(circuits::example2());
  all.push_back(circuits::gaas_datapath());
  all.push_back(circuits::appendix_fig1());
  circuits::SyntheticParams p;
  for (const int k : {1, 2, 3}) {
    p.num_phases = k;
    p.num_stages = 2 * k + 2;
    all.push_back(circuits::synthetic_circuit(p, 900u + static_cast<uint64_t>(k)));
  }
  for (const Circuit& c : all) {
    const auto lp = opt::minimize_cycle_time(c);
    const auto bf = opt::minimize_cycle_time_graph(c);
    ASSERT_TRUE(lp) << c.name();
    ASSERT_TRUE(bf) << c.name() << ": " << bf.error().to_string();
    EXPECT_NEAR(bf->min_cycle, lp->min_cycle, 1e-4) << c.name();
  }
}

// Warm re-analysis equals a fresh analysis in both directions, on a
// circuit drawn by the fuzzer (the named-circuit variants live in
// sta/session_test.cpp).
TEST(IncrementalEquivalence, BothDirectionsOnFuzzCircuit) {
  // Not every fuzz draw is feasible; take the first seed from 11 that is.
  Circuit c = fuzz_circuit(11);
  auto r = opt::minimize_cycle_time(c);
  for (uint64_t seed = 12; !r && seed < 24; ++seed) {
    c = fuzz_circuit(seed);
    r = opt::minimize_cycle_time(c);
  }
  ASSERT_TRUE(r) << "no feasible fuzz circuit in seed range";
  const ClockSchedule sch = r->schedule.scaled(1.3);
  sta::AnalysisSession session(c, sch);
  ASSERT_TRUE(session.analyze().converged);
  const int p = c.num_paths() / 2;
  for (const double factor : {1.15, 0.6}) {  // increase (warm), then decrease (cold)
    Circuit mutated = c;
    mutated.set_path_delay(p, c.path(p).delay * factor);
    session.set_path_delay(p, mutated.path(p).delay);
    const sta::TimingReport& inc = session.analyze();
    const sta::TimingReport full = sta::check_schedule(mutated, sch);
    ASSERT_TRUE(inc.converged) << factor;
    ASSERT_TRUE(full.converged) << factor;
    EXPECT_EQ(inc.fixpoint.departure, full.fixpoint.departure) << factor;
  }
  EXPECT_EQ(session.counters().warm_hits, 1);
  EXPECT_EQ(session.counters().cold_fallbacks, 1);
}

TEST(Shrink, ReducesToTheFailingCore) {
  // Chain of 6 latches with one heavy path; the "failure" is simply the
  // presence of a path with delay >= 50. Everything else must disappear.
  Circuit c("chain", 2);
  for (int i = 0; i < 6; ++i) {
    c.add_latch("L" + std::to_string(i), (i % 2) + 1, 1.0, 2.0);
  }
  for (int i = 0; i + 1 < 6; ++i) {
    c.add_path(i, i + 1, i == 2 ? 63.7 : 10.0, 0.0, "blk" + std::to_string(i));
  }
  const FailurePredicate heavy_path = [](const Circuit& cand) {
    for (const CombPath& p : cand.paths()) {
      if (p.delay >= 50.0) return true;
    }
    return false;
  };
  const ShrinkResult res = shrink_circuit(c, heavy_path);
  EXPECT_EQ(res.circuit.num_paths(), 1);
  EXPECT_EQ(res.circuit.num_elements(), 2);
  EXPECT_DOUBLE_EQ(res.circuit.path(0).delay, 64.0);  // rounded onto the grid
  EXPECT_TRUE(res.circuit.path(0).label.empty());     // labels cleared
  EXPECT_GT(res.attempts, res.accepted);
  // The minimal repro round-trips through the .lct format.
  const auto back = parser::parse_circuit(parser::write_circuit(res.circuit));
  ASSERT_TRUE(back) << back.error().to_string();
  EXPECT_TRUE(heavy_path(*back));
}

TEST(Shrink, RebuildHelpersRemapIndices) {
  Circuit c("helpers", 2);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 2, 1.0, 2.0);
  c.add_latch("C", 1, 1.0, 2.0);
  c.add_path("A", "B", 5.0);
  c.add_path("B", "C", 6.0);
  c.add_path("C", "A", 7.0);

  const Circuit no_mid_path = without_path(c, 1);
  EXPECT_EQ(no_mid_path.num_paths(), 2);
  EXPECT_EQ(no_mid_path.num_elements(), 3);
  EXPECT_DOUBLE_EQ(no_mid_path.path(1).delay, 7.0);

  const Circuit no_b = without_element(c, 1);
  EXPECT_EQ(no_b.num_elements(), 2);
  ASSERT_EQ(no_b.num_paths(), 1);  // only C->A survives
  EXPECT_DOUBLE_EQ(no_b.path(0).delay, 7.0);
  EXPECT_EQ(no_b.element(no_b.path(0).from).name, "C");
  EXPECT_EQ(no_b.element(no_b.path(0).to).name, "A");
}

// The skew leg is on by default (PassesOnEveryNamedCircuit and
// PassesOnFuzzBattery above already exercise it); these push the magnitude
// well past the default and sweep a fresh seed range.
TEST(Differential, SkewLegPassesWithAggressiveMagnitude) {
  DifferentialOptions opt;
  opt.skew_magnitude = 0.25;  // up to a quarter of Tc* per latch
  for (const Circuit& c : {circuits::example1(80.0), circuits::example2(),
                           circuits::gaas_datapath(), circuits::appendix_fig1()}) {
    const DifferentialReport rep = check_circuit(c, 7, opt);
    EXPECT_TRUE(rep.ok()) << c.name() << ":\n" << rep.to_string();
  }
}

TEST(Differential, SkewLegPassesOnFuzzBattery) {
  DifferentialOptions opt;
  opt.skew_magnitude = 0.10;
  for (uint64_t seed = 41; seed <= 100; ++seed) {
    const Circuit c = fuzz_circuit(seed);
    const DifferentialReport rep = check_circuit(c, seed * 131 + 3, opt);
    EXPECT_TRUE(rep.ok()) << "fuzz seed " << seed << " (" << c.name() << "):\n"
                          << rep.to_string();
  }
}

TEST(Differential, SkewLegIsDeterministicAndOptional) {
  const Circuit c = circuits::example2();
  DifferentialOptions on;
  const DifferentialReport a = check_circuit(c, 12, on);
  const DifferentialReport b = check_circuit(c, 12, on);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  EXPECT_TRUE(a.ok()) << a.to_string();
  DifferentialOptions off;
  off.check_skew = false;
  const DifferentialReport rep = check_circuit(c, 12, off);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_FALSE(rep.has(CheckKind::kSkewAgreement));
}

TEST(Fuzzer, CircuitsAreDeterministicPerSeed) {
  for (const uint64_t seed : {1u, 9u, 23u}) {
    const Circuit a = fuzz_circuit(seed);
    const Circuit b = fuzz_circuit(seed);
    ASSERT_EQ(a.num_elements(), b.num_elements()) << seed;
    ASSERT_EQ(a.num_paths(), b.num_paths()) << seed;
    for (int p = 0; p < a.num_paths(); ++p) {
      EXPECT_DOUBLE_EQ(a.path(p).delay, b.path(p).delay) << seed;
    }
    EXPECT_TRUE(a.validate().empty()) << seed;
  }
}

TEST(Fuzzer, InjectedFaultIsCaughtShrunkAndWritten) {
  FuzzOptions options;
  options.num_seeds = 4;
  options.diff.inject_solver_skew = 0.10;
  options.repro_dir = testing::TempDir();
  const FuzzResult res = run_fuzz(options);
  ASSERT_FALSE(res.failures.empty());
  for (const FuzzFailure& f : res.failures) {
    EXPECT_EQ(f.failures.front().kind, CheckKind::kSolverAgreement);
    // Shrinking made real progress and the repro is a valid .lct that
    // still fails the same check.
    EXPECT_LT(f.shrunk_paths, f.original_paths);
    const auto back = parser::parse_circuit(f.repro_lct);
    ASSERT_TRUE(back) << back.error().to_string();
    EXPECT_TRUE(check_circuit(*back, f.seed * 0x9e3779b97f4a7c15ull + 1, options.diff)
                    .has(CheckKind::kSolverAgreement));
    ASSERT_FALSE(f.repro_path.empty());
    const auto loaded = parser::load_circuit(f.repro_path);
    EXPECT_TRUE(loaded.has_value());
  }
}

TEST(Fuzzer, CleanRunReportsStats) {
  FuzzOptions options;
  options.num_seeds = 30;
  const FuzzResult res = run_fuzz(options);
  EXPECT_TRUE(res.ok()) << res.failures.size() << " failures; first: "
                        << (res.failures.empty() ? "" : res.failures.front().repro_lct);
  EXPECT_EQ(res.circuits_checked, 30);
  EXPECT_GT(res.feasible, 0);
}

}  // namespace
}  // namespace mintc::check
