// Both graph optimizers must agree with the simplex everywhere: the
// binary search to its tolerance, the exact maximum-cycle-ratio solver to
// 1e-9 relative. Neither shares machinery with MLP beyond the model.
#include "opt/graph_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "check/fuzzer.h"
#include "circuits/appendix_fig1.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "opt/mlp.h"
#include "sta/analysis.h"

namespace mintc::opt {
namespace {

constexpr double kExactRelTol = 1e-9;

void expect_exact_matches_lp(const Circuit& c, const MlpOptions& lp_opts,
                             const GraphSolveOptions& g_opts) {
  const auto lp = minimize_cycle_time(c, lp_opts);
  const auto ex = minimize_cycle_time_exact(c, g_opts);
  ASSERT_TRUE(lp) << c.name();
  ASSERT_TRUE(ex) << c.name() << ": " << ex.error().to_string();
  EXPECT_NEAR(ex->min_cycle, lp->min_cycle, kExactRelTol * std::fabs(lp->min_cycle)) << c.name();
  EXPECT_TRUE(satisfies_p1(c, ex->schedule, ex->departure, 1e-5)) << c.name();
  EXPECT_TRUE(sta::check_schedule(c, ex->schedule).feasible) << c.name();
}

void expect_matches_lp(const Circuit& c, const MlpOptions& lp_opts = {},
                       const GraphSolveOptions& g_opts = {}) {
  const auto lp = minimize_cycle_time(c, lp_opts);
  const auto bf = minimize_cycle_time_graph(c, g_opts);
  ASSERT_TRUE(lp) << c.name();
  ASSERT_TRUE(bf) << c.name() << ": " << bf.error().to_string();
  EXPECT_NEAR(bf->min_cycle, lp->min_cycle, 1e-4) << c.name();
  EXPECT_TRUE(satisfies_p1(c, bf->schedule, bf->departure, 1e-5)) << c.name();
  EXPECT_TRUE(sta::check_schedule(c, bf->schedule).feasible) << c.name();
  expect_exact_matches_lp(c, lp_opts, g_opts);
}

TEST(GraphSolver, MatchesLpOnExample1Sweep) {
  for (double d41 = 0.0; d41 <= 160.0; d41 += 20.0) {
    const Circuit c = circuits::example1(d41);
    const auto bf = minimize_cycle_time_graph(c);
    ASSERT_TRUE(bf) << d41;
    EXPECT_NEAR(bf->min_cycle, circuits::example1_optimal_tc(d41), 1e-4) << d41;
    expect_exact_matches_lp(c, {}, {});
  }
}

TEST(GraphSolver, MatchesLpOnPaperCircuits) {
  expect_matches_lp(circuits::example2());
  expect_matches_lp(circuits::gaas_datapath());
  expect_matches_lp(circuits::appendix_fig1());
}

TEST(GraphSolver, MatchesLpOnSynthetics) {
  circuits::SyntheticParams p;
  for (const int k : {2, 3}) {
    p.num_phases = k;
    p.num_stages = 2 * k + 2;
    for (const uint64_t seed : {401u, 402u}) {
      expect_matches_lp(circuits::synthetic_circuit(p, seed));
    }
  }
}

TEST(GraphSolver, MatchesLpWithExtensions) {
  // Per-latch skews, the largest of which sets the C3 margin.
  Circuit c = circuits::example1(80.0);
  for (int i = 0; i < c.num_elements(); ++i) c.element(i).skew = 3.0;
  c.element(0).skew = 5.0;
  MlpOptions lp_opts;
  GraphSolveOptions g_opts;
  lp_opts.generator.min_phase_width = 55.0;
  g_opts.generator.min_phase_width = 55.0;
  lp_opts.generator.min_phase_separation = 4.0;
  g_opts.generator.min_phase_separation = 4.0;
  expect_matches_lp(c, lp_opts, g_opts);
}

TEST(GraphSolver, MatchesLpWithHoldRows) {
  Circuit c = circuits::example1(80.0);
  for (int i = 0; i < c.num_elements(); ++i) {
    c.element(i).hold = 2.0;
    c.element(i).dq_min = 5.0;
  }
  MlpOptions lp_opts;
  GraphSolveOptions g_opts;
  lp_opts.generator.hold_constraints = true;
  g_opts.generator.hold_constraints = true;
  expect_matches_lp(c, lp_opts, g_opts);
}

TEST(GraphSolver, MatchesLpWithArrivalBasedSetup) {
  MlpOptions lp_opts;
  GraphSolveOptions g_opts;
  lp_opts.generator.arrival_based_setup = true;
  g_opts.generator.arrival_based_setup = true;
  expect_matches_lp(circuits::example1(100.0), lp_opts, g_opts);
}

TEST(GraphSolver, InfeasibleHoldReported) {
  // The same degenerate hold system the LP path rejects (see mlp_test).
  Circuit c("infeasible", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  Element b;
  b.name = "B";
  b.phase = 1;
  b.setup = 1.0;
  b.dq = 2.0;
  b.hold = 1e6;
  c.add_element(b);
  c.add_path("A", "B", 10.0, 0.0);
  GraphSolveOptions g_opts;
  g_opts.generator.hold_constraints = true;
  const auto bf = minimize_cycle_time_graph(c, g_opts);
  ASSERT_FALSE(bf);
  EXPECT_EQ(bf.error().kind, ErrorKind::kInfeasible);
  const auto ex = minimize_cycle_time_exact(c, g_opts);
  ASSERT_FALSE(ex);
  EXPECT_EQ(ex.error().kind, ErrorKind::kInfeasible);
}

TEST(GraphSolver, InvalidCircuitRejected) {
  Circuit c("bad", 1);
  c.add_latch("X", 9, 1.0, 2.0);
  const auto bf = minimize_cycle_time_graph(c);
  ASSERT_FALSE(bf);
  EXPECT_EQ(bf.error().kind, ErrorKind::kInvalidCircuit);
  const auto ex = minimize_cycle_time_exact(c);
  ASSERT_FALSE(ex);
  EXPECT_EQ(ex.error().kind, ErrorKind::kInvalidCircuit);
}

TEST(GraphSolver, ReportsWork) {
  const auto bf = minimize_cycle_time_graph(circuits::gaas_datapath());
  ASSERT_TRUE(bf);
  EXPECT_GT(bf->search_steps, 10);  // ~log2(range/tol)
  EXPECT_GT(bf->relaxations, 0);
}

TEST(GraphSolver, FlipFlopCircuits) {
  Circuit c("ff", 2);
  c.add_latch("L", 1, 1.0, 2.0);
  c.add_flipflop("F", 2, 1.0, 2.0);
  c.add_path("L", "F", 10.0);
  c.add_path("F", "L", 10.0);
  expect_matches_lp(c);
}

// -- The exact solver ---------------------------------------------------------

TEST(ExactSolver, PaperPinsAndTheirBits) {
  // Same bits as MLP: the critical cycle's −Σa/Σk rounds like the simplex.
  const auto e1 = minimize_cycle_time_exact(circuits::example1(80.0));
  const auto e2 = minimize_cycle_time_exact(circuits::example2());
  const auto gaas = minimize_cycle_time_exact(circuits::gaas_datapath());
  ASSERT_TRUE(e1 && e2 && gaas);
  EXPECT_EQ(e1->min_cycle, 110.0);
  EXPECT_EQ(e2->min_cycle, 70.0);
  EXPECT_EQ(gaas->min_cycle, minimize_cycle_time(circuits::gaas_datapath())->min_cycle);
  EXPECT_EQ(gaas->min_cycle, 4.3999999999999995);
  EXPECT_EQ(gaas->newton_steps + gaas->ulp_raises, 0);  // Howard's cycle certified first time
  EXPECT_GT(gaas->relaxations, 0);
}

TEST(ExactSolver, CriticalCycleReproducesTcAndNamesLpRows) {
  for (const Circuit& c : {circuits::example1(80.0), circuits::gaas_datapath()}) {
    const auto ex = minimize_cycle_time_exact(c);
    ASSERT_TRUE(ex) << c.name();
    ASSERT_FALSE(ex->critical_cycle.empty()) << c.name();
    double sum_a = 0.0;
    int sum_k = 0;
    const GeneratedLp lp = generate_lp(c);
    std::set<std::string> lp_rows;
    for (const lp::Row& row : lp.model.rows()) lp_rows.insert(row.name);
    for (const CycleRow& row : ex->critical_cycle) {
      sum_a += row.a;
      sum_k += row.k;
      const bool bound = row.name.rfind("C4:", 0) == 0 || row.name.rfind("L3:", 0) == 0;
      if (!bound) {
        EXPECT_TRUE(lp_rows.count(row.name)) << c.name() << ": " << row.name;
      }
    }
    ASSERT_GT(sum_k, 0) << c.name();
    EXPECT_EQ((0.0 - sum_a) / sum_k, ex->min_cycle) << c.name();
  }
  // Example 1 at Δ41 = 80 is bound by its four-latch loop, which crosses
  // the cycle boundary twice: (30 + 30 + 70 + 90) / 2 = 110.
  const auto e1 = minimize_cycle_time_exact(circuits::example1(80.0));
  ASSERT_TRUE(e1);
  std::set<std::string> names;
  for (const CycleRow& row : e1->critical_cycle) names.insert(row.name);
  EXPECT_EQ(names, (std::set<std::string>{"L2R:L1->L2", "L2R:L2->L3", "L2R:L3->L4",
                                          "L2R:L4->L1"}));
}

TEST(ExactSolver, CriticalRowsAreLpRowsAcrossRowFamilies) {
  // Across generator options the critical cycle runs through every row
  // family; each non-bound row must be one generate_lp emits with the same
  // options, and the rows' ratio must be the returned Tc*. Three small
  // circuits put the families fuzz circuits rarely make critical on the
  // cycle: a zero-delay pair (Tc* = 0 through C1:s and its C4 bound), a
  // same-phase latch pair whose capture setup binds through the phase width
  // (T_1 >= D_B + 1 >= 13 − Tc against T_1 <= Tc, so Tc* = 6.5), and a
  // flip-flop ring. (FF:pin never closes a simple critical cycle: its
  // dh >= s half duplicates L3, and its dh <= s half leads only back to s.)
  Circuit zero("zero-delay", 2);
  zero.add_latch("A", 1, 0.0, 0.0);
  zero.add_latch("B", 2, 0.0, 0.0);
  zero.add_path("A", "B", 0.0);
  Circuit setup_bound("setup-bound", 1);
  setup_bound.add_latch("A", 1, 1.0, 2.0);
  setup_bound.add_latch("B", 1, 1.0, 2.0);
  setup_bound.add_path("A", "B", 10.0);
  Circuit ff_ring("ff-ring", 1);
  ff_ring.add_flipflop("F", 1, 1.0, 2.0);
  ff_ring.add_flipflop("G", 1, 1.0, 2.0);
  ff_ring.add_path("F", "G", 10.0);
  ff_ring.add_path("G", "F", 12.0);
  std::vector<Circuit> circuits = {zero, setup_bound, ff_ring};
  for (uint64_t seed = 1; seed <= 120; ++seed) circuits.push_back(check::fuzz_circuit(seed));

  GeneratorOptions hold;
  hold.hold_constraints = true;
  GeneratorOptions arrival;
  arrival.arrival_based_setup = true;
  GeneratorOptions margins;
  margins.min_phase_width = 4.0;
  margins.min_phase_separation = 2.0;
  GeneratorOptions overlap;
  overlap.enforce_nonoverlap = false;
  std::set<std::string> names;
  for (const GeneratorOptions& generator : {GeneratorOptions{}, hold, arrival, margins, overlap}) {
    GraphSolveOptions g_opts;
    g_opts.generator = generator;
    for (const Circuit& c : circuits) {
      const auto ex = minimize_cycle_time_exact(c, g_opts);
      if (!ex) continue;
      const GeneratedLp lp = generate_lp(c, generator);
      std::set<std::string> lp_rows;
      for (const lp::Row& row : lp.model.rows()) lp_rows.insert(row.name);
      double sum_a = 0.0;
      int sum_k = 0;
      for (const CycleRow& row : ex->critical_cycle) {
        sum_a += row.a;
        sum_k += row.k;
        names.insert(row.name);
        const bool bound = row.name.rfind("C4:", 0) == 0 || row.name.rfind("L3:", 0) == 0;
        if (!bound) {
          EXPECT_TRUE(lp_rows.count(row.name)) << c.name() << ": " << row.name;
        }
      }
      ASSERT_GT(sum_k, 0) << c.name();
      if (ex->ulp_raises == 0) {
        EXPECT_EQ((0.0 - sum_a) / sum_k, ex->min_cycle) << c.name();
      }
    }
  }
  for (const std::string family : {"L2R:", "L1:", "L1A:", "C1:s", "C1:T", "C3:", "C4:", "L3:",
                                   "FF:setup", "HOLD:", "EXT:minwidth"}) {
    EXPECT_TRUE(std::any_of(names.begin(), names.end(),
                            [&](const std::string& n) { return n.rfind(family, 0) == 0; }))
        << "no critical cycle ran through a " << family << " row";
  }
}

TEST(ExactSolver, NegativeZeroTransitCycleIsInfeasible) {
  // A same-phase latch pair under hold rows: B's hold row caps T_1 at
  // δ_DQA + δ_AB − hold = 2 + 0.5 − 2 = 0.5 (its (1−C)·Tc term vanishes),
  // while B's setup and L3 rows demand T_1 >= D_B + setup >= 1. Together
  // they close a Tc-free cycle of weight −0.5, so no cycle time helps.
  Circuit c("zero-transit", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  Element b;
  b.name = "B";
  b.phase = 1;
  b.setup = 1.0;
  b.dq = 2.0;
  b.hold = 2.0;
  c.add_element(b);
  c.add_path("A", "B", 10.0, 0.5);
  GraphSolveOptions g_opts;
  g_opts.generator.hold_constraints = true;
  const auto ex = minimize_cycle_time_exact(c, g_opts);
  ASSERT_FALSE(ex);
  EXPECT_EQ(ex.error().kind, ErrorKind::kInfeasible);
  MlpOptions lp_opts;
  lp_opts.generator.hold_constraints = true;
  const auto lp = minimize_cycle_time(c, lp_opts);
  ASSERT_FALSE(lp);
  EXPECT_EQ(lp.error().kind, ErrorKind::kInfeasible);
}

TEST(ExactSolver, NewtonStepsFromALowStartReachTheSameOptimum) {
  circuits::SyntheticParams p;
  p.num_phases = 3;
  p.num_stages = 8;
  for (const Circuit& c : {circuits::example1(80.0), circuits::example2(),
                           circuits::gaas_datapath(), circuits::synthetic_circuit(p, 403)}) {
    const auto ex = minimize_cycle_time_exact(c);
    ASSERT_TRUE(ex) << c.name();
    for (const double start : {0.0, 0.5 * ex->min_cycle}) {
      const auto newton = minimize_cycle_time_from(c, start);
      ASSERT_TRUE(newton) << c.name() << " from " << start;
      EXPECT_GT(newton->newton_steps, 0) << c.name() << " from " << start;
      EXPECT_NEAR(newton->min_cycle, ex->min_cycle, 1e-12 * ex->min_cycle)
          << c.name() << " from " << start;
      EXPECT_FALSE(newton->critical_cycle.empty()) << c.name() << " from " << start;
      EXPECT_TRUE(satisfies_p1(c, newton->schedule, newton->departure, 1e-5)) << c.name();
    }
  }
}

// Every delay-like quantity times `f`: Tc* scales by f exactly.
Circuit scaled_delays(Circuit c, double f) {
  for (int i = 0; i < c.num_elements(); ++i) {
    Element& e = c.element(i);
    e.setup *= f;
    e.hold *= f;
    e.dq *= f;
    if (e.dq_min >= 0.0) e.dq_min *= f;
    e.skew *= f;
  }
  for (int p = 0; p < c.num_paths(); ++p) {
    const double delay = c.path(p).delay * f;
    const double min_delay = c.path(p).min_delay * f;
    // Keep delay >= min_delay at every step.
    if (f >= 1.0) {
      c.set_path_delay(p, delay);
      c.set_path_min_delay(p, min_delay);
    } else {
      c.set_path_min_delay(p, min_delay);
      c.set_path_delay(p, delay);
    }
  }
  return c;
}

TEST(ExactSolver, MatchesLpOnFuzzCircuitsAcrossDelayScales) {
  // The relaxation thresholds scale with the largest row constant, so
  // picosecond and microsecond delays certify alike.
  for (const double f : {1e-3, 1.0, 1e3}) {
    int feasible = 0;
    for (uint64_t seed = 1; seed <= 150; ++seed) {
      const Circuit c = scaled_delays(check::fuzz_circuit(seed), f);
      const auto lp = minimize_cycle_time(c);
      const auto ex = minimize_cycle_time_exact(c);
      ASSERT_EQ(lp.has_value(), ex.has_value()) << "seed " << seed << " scale " << f;
      if (!lp) {
        EXPECT_EQ(lp.error().kind, ex.error().kind) << "seed " << seed << " scale " << f;
        continue;
      }
      ++feasible;
      EXPECT_NEAR(ex->min_cycle, lp->min_cycle, kExactRelTol * std::fabs(lp->min_cycle))
          << "seed " << seed << " scale " << f;
      EXPECT_TRUE(satisfies_p1(c, ex->schedule, ex->departure, 1e-8 * std::max(1.0, f)))
          << "seed " << seed << " scale " << f;
      EXPECT_EQ(ex->ulp_raises, 0) << "seed " << seed << " scale " << f;
    }
    EXPECT_GT(feasible, 90) << "scale " << f;
  }
}

}  // namespace
}  // namespace mintc::opt
