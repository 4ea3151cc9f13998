// Per-latch clock skew (Element::skew) through the optimizing engines: zero
// skew leaves the paper's pinned numbers untouched, skew moves RHS terms
// only (never the row census), both engines agree under skew, and the
// parametric skew-tolerance sweep matches point solves.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "opt/constraints.h"
#include "opt/graph_solver.h"
#include "opt/mlp.h"
#include "opt/parametric.h"

namespace mintc {
namespace {

Circuit with_uniform_skew(Circuit c, double skew) {
  for (int i = 0; i < c.num_elements(); ++i) c.element(i).skew = skew;
  return c;
}

TEST(OptSkew, ZeroSkewLeavesPaperPinsUntouched) {
  const Circuit gaas = with_uniform_skew(circuits::gaas_datapath(), 0.0);
  EXPECT_EQ(opt::generate_lp(gaas).counts.rows(), 91);
  const auto r = opt::minimize_cycle_time(gaas);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->min_cycle, 4.4, 1e-6);
  const auto e1 = opt::minimize_cycle_time(with_uniform_skew(circuits::example1(80.0), 0.0));
  ASSERT_TRUE(e1.has_value());
  EXPECT_NEAR(e1->min_cycle, 110.0, 1e-6);
}

TEST(OptSkew, SkewMovesRhsOnlyNeverTheRowCensus) {
  const Circuit base = circuits::gaas_datapath();
  const Circuit skewed = with_uniform_skew(base, 0.3);
  const opt::GeneratedLp a = opt::generate_lp(base);
  const opt::GeneratedLp b = opt::generate_lp(skewed);
  ASSERT_EQ(b.counts.rows(), 91);
  ASSERT_EQ(a.model.num_rows(), b.model.num_rows());
  for (int r = 0; r < a.model.num_rows(); ++r) {
    EXPECT_EQ(a.model.row(r).name, b.model.row(r).name);
    ASSERT_EQ(a.model.row(r).terms.size(), b.model.row(r).terms.size());
  }
}

TEST(OptSkew, TcIsMonotoneInUniformSkew) {
  double last = 0.0;
  for (const double s : {0.0, 1.0, 5.0, 40.0}) {
    const auto r = opt::minimize_cycle_time(with_uniform_skew(circuits::example1(80.0), s));
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(r->min_cycle, last - 1e-9);
    last = r->min_cycle;
  }
  // example1(80) is loop-bound, so small skews ride for free; 40 ns widens
  // the C3 nonoverlap margins past the slack and costs real cycle time.
  EXPECT_GT(last, 110.0);
}

TEST(OptSkew, EnginesAgreeUnderPerLatchSkew) {
  Circuit c = circuits::example2();
  for (int i = 0; i < c.num_elements(); ++i) {
    c.element(i).skew = 0.25 * static_cast<double>(i % 3);
  }
  const auto lp = opt::minimize_cycle_time(c);
  const auto bf = opt::minimize_cycle_time_graph(c);
  ASSERT_TRUE(lp.has_value());
  ASSERT_TRUE(bf.has_value());
  EXPECT_NEAR(lp->min_cycle, bf->min_cycle, 1e-4 * std::max(1.0, lp->min_cycle));
  EXPECT_TRUE(opt::satisfies_p1(c, lp->schedule, lp->departure, 1e-5));
  EXPECT_TRUE(opt::satisfies_p1(c, bf->schedule, bf->departure, 1e-5));
}

TEST(OptSkew, HoldRowsChargeTheCaptureSkew) {
  Circuit base = circuits::example2();
  for (int i = 0; i < base.num_elements(); ++i) {
    base.element(i).hold = 1.0;
    base.element(i).dq_min = 2.0;
  }
  opt::GeneratorOptions gen;
  gen.hold_constraints = true;
  const lp::Model plain = opt::generate_lp(base, gen).model;
  const lp::Model skewed = opt::generate_lp(with_uniform_skew(base, 0.5), gen).model;
  ASSERT_EQ(plain.num_rows(), skewed.num_rows());
  int hold_rows = 0;
  for (int r = 0; r < plain.num_rows(); ++r) {
    if (plain.row(r).name.rfind("HOLD:", 0) != 0) continue;
    ++hold_rows;
    // σ = 0.5 charged at the capturing endpoint tightens each hold RHS by
    // exactly that amount.
    EXPECT_EQ(skewed.row(r).rhs, plain.row(r).rhs + 0.5) << plain.row(r).name;
  }
  EXPECT_GT(hold_rows, 0);
}

TEST(OptSkew, SweepClockSkewMatchesPointSolves) {
  const Circuit c = circuits::example1(80.0);
  const lp::ParametricResult sweep = opt::sweep_clock_skew(c, 0.0, 20.0, 5);
  ASSERT_EQ(sweep.points.size(), 5u);
  EXPECT_NEAR(sweep.points[0].objective, 110.0, 1e-6);
  for (const lp::ParametricPoint& p : sweep.points) {
    ASSERT_EQ(p.status, lp::SolveStatus::kOptimal);
    const auto direct = opt::minimize_cycle_time(with_uniform_skew(c, p.theta));
    ASSERT_TRUE(direct.has_value());
    EXPECT_NEAR(p.objective, direct->min_cycle, 1e-7);
  }
  // Tc*(σ) is piecewise-linear and nondecreasing.
  for (const lp::ParametricSegment& s : sweep.segments) EXPECT_GE(s.slope, -1e-9);
}

}  // namespace
}  // namespace mintc
