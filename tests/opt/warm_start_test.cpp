// Warm-start layer tests: simplex basis reuse and the basis-chained
// parametric sweep. Warm results must agree with cold ones.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuits/example1.h"
#include "circuits/gaas.h"
#include "lp/simplex.h"
#include "opt/constraints.h"
#include "opt/parametric.h"

namespace mintc::opt {
namespace {

TEST(SimplexWarmStart, ReinstalledBasisSkipsPhaseOneAndMatches) {
  const Circuit circuit = circuits::gaas_datapath();
  const GeneratedLp gen = generate_lp(circuit);
  const lp::SimplexSolver solver;
  const lp::Solution cold = solver.solve(gen.model);
  ASSERT_TRUE(cold.optimal());
  ASSERT_FALSE(cold.basis.empty());

  // Re-solve the SAME model from its own optimal basis: phase 1 skipped,
  // zero phase-2 pivots, identical optimum.
  const lp::Solution warm = solver.solve(gen.model, &cold.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.stats.warm_started);
  EXPECT_FALSE(warm.stats.warm_rejected);
  EXPECT_EQ(warm.stats.phase1_pivots, 0);
  EXPECT_EQ(warm.stats.phase2_pivots, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  for (size_t j = 0; j < cold.x.size(); ++j) EXPECT_NEAR(warm.x[j], cold.x[j], 1e-9);
}

TEST(SimplexWarmStart, PerturbedModelReoptimizesToColdOptimum) {
  const Circuit circuit = circuits::gaas_datapath();
  const lp::SimplexSolver solver;
  const lp::Solution first = solver.solve(generate_lp(circuit).model);
  ASSERT_TRUE(first.optimal());

  Circuit bumped = circuit;
  bumped.set_path_delay(0, circuit.path(0).delay * 1.1);
  const lp::Model model = generate_lp(bumped).model;
  const lp::Solution cold = solver.solve(model);
  const lp::Solution warm = solver.solve(model, &first.basis);
  ASSERT_TRUE(cold.optimal());
  ASSERT_TRUE(warm.optimal());
  // Same LP, so the optima agree regardless of which vertex each run ends
  // on; a warm start must never change the optimal value.
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
  EXPECT_LE(warm.stats.phase1_pivots + warm.stats.phase2_pivots,
            cold.stats.phase1_pivots + cold.stats.phase2_pivots);
}

TEST(SimplexWarmStart, DefectiveHintsFallBackCold) {
  const Circuit circuit = circuits::example1(80.0);
  const lp::Model model = generate_lp(circuit).model;
  const lp::SimplexSolver solver;
  const lp::Solution cold = solver.solve(model);
  ASSERT_TRUE(cold.optimal());

  // Wrong size, out-of-range, and duplicated columns must all be rejected
  // and produce the cold answer anyway.
  for (const std::vector<int>& bad :
       {std::vector<int>{0}, std::vector<int>{-1, 0, 1}, std::vector<int>(cold.basis.size(), 0),
        [&] {
          std::vector<int> b = cold.basis;
          b[0] = 1 << 28;
          return b;
        }()}) {
    const lp::Solution sol = solver.solve(model, &bad);
    ASSERT_TRUE(sol.optimal());
    EXPECT_TRUE(sol.stats.warm_rejected);
    EXPECT_FALSE(sol.stats.warm_started);
    EXPECT_NEAR(sol.objective, cold.objective, 1e-9);
  }
}

TEST(ParametricSweep, ChainedBasisMatchesPerSampleColdSolves) {
  const Circuit circuit = circuits::example1(0.0);
  // Sweep Δ41 like the paper's Fig. 7; the warm (basis-chained) sweep must
  // trace the same piecewise-linear curve as per-θ cold solves.
  const int path = circuits::example1_ld_path();
  const double lo = 0.0, hi = 160.0;
  const int samples = 23;
  const lp::ParametricResult swept = sweep_path_delay(circuit, path, lo, hi, samples);
  ASSERT_EQ(swept.points.size(), static_cast<size_t>(samples));

  const lp::SimplexSolver solver;
  for (const lp::ParametricPoint& pt : swept.points) {
    Circuit c = circuit;
    c.set_path_delay(path, pt.theta);
    const lp::Solution cold = solver.solve(generate_lp(c).model);
    ASSERT_EQ(pt.status, cold.status) << "theta " << pt.theta;
    if (cold.optimal()) {
      EXPECT_NEAR(pt.objective, cold.objective, 1e-7) << "theta " << pt.theta;
    }
  }
}

}  // namespace
}  // namespace mintc::opt
