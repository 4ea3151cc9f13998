#include "opt/mlp.h"

#include <gtest/gtest.h>

#include "check/oracle.h"
#include "circuits/example1.h"
#include "sta/analysis.h"

namespace mintc::opt {
namespace {

TEST(Mlp, Example1PublishedOptima) {
  // Fig. 6: Δ41 = 80/100/120 -> Tc* = 110/120/140.
  const double cases[][2] = {{80.0, 110.0}, {100.0, 120.0}, {120.0, 140.0}};
  for (const auto& [d41, tc] : cases) {
    const auto r = minimize_cycle_time(circuits::example1(d41));
    ASSERT_TRUE(r) << r.error().to_string();
    EXPECT_NEAR(r->min_cycle, tc, 1e-6) << "delta41=" << d41;
  }
}

TEST(Mlp, Example1ClosedFormAcrossRange) {
  for (double d41 = 0.0; d41 <= 160.0; d41 += 10.0) {
    const auto r = minimize_cycle_time(circuits::example1(d41));
    ASSERT_TRUE(r);
    EXPECT_NEAR(r->min_cycle, circuits::example1_optimal_tc(d41), 1e-6) << "d41=" << d41;
  }
}

TEST(Mlp, SolutionSatisfiesP1) {
  // Theorem 1: the slid solution satisfies the *nonlinear* constraints.
  const auto r = minimize_cycle_time(circuits::example1(80.0));
  ASSERT_TRUE(r);
  const Circuit c = circuits::example1(80.0);
  EXPECT_TRUE(satisfies_p1(c, r->schedule, r->departure));
  // The raw LP departures generally do NOT (they may float above the max).
  // They must at least satisfy the relaxed constraints, i.e. be >= the slid
  // values.
  for (size_t i = 0; i < r->departure.size(); ++i) {
    EXPECT_GE(r->lp_departure[i], r->departure[i] - 1e-7);
  }
}

TEST(Mlp, FixpointNeverIncreasesCycleTime) {
  // The fixpoint step only moves departures; Tc stays the LP optimum.
  const auto r = minimize_cycle_time(circuits::example1(120.0));
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->schedule.cycle, r->min_cycle, 1e-9);
}

TEST(Mlp, AnalysisConfirmsDesign) {
  // Design -> analyze must round-trip: the optimal schedule passes checkTc.
  const auto r = minimize_cycle_time(circuits::example1(100.0));
  ASSERT_TRUE(r);
  const Circuit c = circuits::example1(100.0);
  const sta::TimingReport rep = sta::check_schedule(c, r->schedule);
  EXPECT_TRUE(rep.feasible);
}

TEST(Mlp, OptimalityCertificate) {
  // Shrinking Tc below the optimum must be infeasible: scale the schedule
  // down 1% and re-analyze.
  const auto r = minimize_cycle_time(circuits::example1(80.0));
  ASSERT_TRUE(r);
  const Circuit c = circuits::example1(80.0);
  const sta::TimingReport rep = sta::check_schedule(c, r->schedule.scaled(0.99));
  EXPECT_FALSE(rep.feasible);
}

TEST(Mlp, CriticalConstraintsNonEmptyAndNamed) {
  const auto r = minimize_cycle_time(circuits::example1(80.0));
  ASSERT_TRUE(r);
  ASSERT_FALSE(r->critical.empty());
  for (const TightConstraint& t : r->critical) {
    EXPECT_FALSE(t.name.empty());
    EXPECT_NEAR(t.slack, 0.0, 1e-6);
    EXPECT_GT(std::abs(t.dual), 1e-7);
  }
}

TEST(Mlp, DualsSumOnCriticalLoop) {
  // For Δ41 in the loop-average regime, dTc*/dΔ41 = 1/2 (Fig. 7): the dual
  // of the Ld propagation row must be 0.5.
  const auto r = minimize_cycle_time(circuits::example1(80.0));
  ASSERT_TRUE(r);
  double ld_dual = 0.0;
  for (const TightConstraint& t : r->critical) {
    if (t.name == "L2R:L4->L1") ld_dual = t.dual;
  }
  EXPECT_NEAR(ld_dual, 0.5, 1e-6);
}

TEST(Mlp, InvalidCircuitRejected) {
  Circuit c("bad", 2);
  c.add_latch("X", 5, 1.0, 2.0);  // phase out of range
  const auto r = minimize_cycle_time(c);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().kind, ErrorKind::kInvalidCircuit);
}

TEST(Mlp, InfeasibleHoldConstraintsReported) {
  // A hold requirement no cycle time can meet: for a same-phase pair the
  // hold row degenerates to -T_1 >= hold - delta (the (1-C)*Tc term
  // vanishes and the s terms cancel), impossible for hold > delta.
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
  MlpOptions opt;
  opt.generator.hold_constraints = true;
  const auto r = minimize_cycle_time(c, opt);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().kind, ErrorKind::kInfeasible);
}

TEST(Mlp, SingleLatchSelfLoop) {
  // One latch feeding itself through combinational logic: one-phase clock,
  // the loop crosses one boundary, so Tc* = dq + delay (setup permitting).
  Circuit c("self", 1);
  c.add_latch("A", 1, 2.0, 3.0);
  c.add_path("A", "A", 10.0);
  const auto r = minimize_cycle_time(c);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->min_cycle, 13.0, 1e-6);
}

TEST(Mlp, EmptyCircuitOptimalAtZero) {
  Circuit c("empty", 1);
  const auto r = minimize_cycle_time(c);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->min_cycle, 0.0, 1e-9);
}

TEST(Mlp, PipelineWithoutFeedback) {
  // Pure pipeline A -> B: Tc bounded by the single-period path span.
  Circuit c("pipe", 2);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 2, 1.0, 2.0);
  c.add_path("A", "B", 10.0);
  const auto r = minimize_cycle_time(c);
  ASSERT_TRUE(r);
  // Path must fit: dq + delay + setup = 13 within one period (C3 makes the
  // phi2 end at most Tc after phi1 start... here only K12 exists so the
  // bound comes from periodicity: s2+T2 <= ... ). At minimum the LP yields
  // a feasible positive Tc; check P1 feasibility and optimality cert.
  EXPECT_GT(r->min_cycle, 0.0);
  EXPECT_TRUE(satisfies_p1(c, r->schedule, r->departure));
  const sta::TimingReport down = sta::check_schedule(c, r->schedule.scaled(0.98));
  EXPECT_FALSE(down.feasible);
}

TEST(Mlp, FixpointIterationsSmall) {
  // Paper: "the update process usually terminated in two to three
  // iterations (in some cases no iterations were even necessary)".
  const auto r = minimize_cycle_time(circuits::example1(80.0));
  ASSERT_TRUE(r);
  EXPECT_LE(r->fixpoint_sweeps, 6);
}

TEST(Mlp, UpdateSchemesAgree) {
  // MLP's slide (the engine) against the paper's Jacobi iteration started
  // from the same LP point: the same fixpoint, and both satisfy P1.
  const Circuit c = circuits::example1(120.0);
  const auto r = minimize_cycle_time(c);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->min_cycle, 140.0, 1e-6);
  const sta::FixpointResult jacobi =
      check::jacobi_departures(c, r->schedule, r->lp_departure);
  ASSERT_TRUE(jacobi.converged);
  for (size_t i = 0; i < jacobi.departure.size(); ++i) {
    EXPECT_NEAR(r->departure[i], jacobi.departure[i], 1e-7) << i;
  }
  EXPECT_TRUE(satisfies_p1(c, r->schedule, r->departure));
  EXPECT_TRUE(satisfies_p1(c, r->schedule, jacobi.departure));
}

TEST(Mlp, WarmStartBoundDoesNotChangeOptimum) {
  // Adding a Tc upper bound from a baseline (the paper's "good initial
  // guess" idea) must not change the optimal value.
  MlpOptions opt;
  opt.generator.tc_upper_bound = 200.0;
  const auto r = minimize_cycle_time(circuits::example1(80.0), opt);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->min_cycle, 110.0, 1e-6);
}

TEST(Mlp, ArrivalBasedSetupCanUnderestimate) {
  // The paper warns eq. (10) "may sometimes be satisfiable by a clock phase
  // whose width is 0": the arrival-based variant can only do better or
  // equal (it is weaker).
  MlpOptions loose;
  loose.generator.arrival_based_setup = true;
  const auto a = minimize_cycle_time(circuits::example1(80.0), loose);
  const auto b = minimize_cycle_time(circuits::example1(80.0));
  ASSERT_TRUE(a && b);
  EXPECT_LE(a->min_cycle, b->min_cycle + 1e-9);
}

}  // namespace
}  // namespace mintc::opt
