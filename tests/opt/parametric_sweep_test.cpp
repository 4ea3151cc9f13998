#include "opt/parametric.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>

#include "circuits/example1.h"
#include "circuits/gaas.h"
#include "lp/simplex.h"
#include "opt/constraints.h"

namespace mintc::opt {
namespace {

// Each point of a sweep must be, bit for bit, a cold solve of its sample's
// LP alone: its status and its objective's bits.
void expect_cold_points(const lp::ParametricResult& swept, int samples,
                        const std::function<Circuit(double)>& sample) {
  ASSERT_EQ(swept.points.size(), static_cast<size_t>(samples));
  for (const lp::ParametricPoint& pt : swept.points) {
    const lp::Solution cold = lp::SimplexSolver().solve(generate_lp(sample(pt.theta)).model);
    ASSERT_EQ(pt.status, cold.status) << "theta " << pt.theta;
    const double expected = cold.optimal() ? cold.objective : 0.0;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pt.objective), std::bit_cast<std::uint64_t>(expected))
        << "theta " << pt.theta << ": " << pt.objective << " vs " << expected;
  }
}

TEST(ParametricSweep, EverySampleIsItsColdSolve) {
  // The paper's Fig. 7 sweep of Δ41.
  const Circuit ex1 = circuits::example1(0.0);
  const int path = circuits::example1_ld_path();
  expect_cold_points(sweep_path_delay(ex1, path, 0.0, 160.0, 23), 23, [&](double theta) {
    Circuit c = ex1;
    c.set_path_delay(path, theta);
    return c;
  });
  // A skew-tolerance curve, whose samples move the C3 margin too.
  const Circuit gaas = circuits::gaas_datapath();
  expect_cold_points(sweep_clock_skew(gaas, 0.0, 0.6, 13), 13, [&](double theta) {
    Circuit c = gaas;
    for (int i = 0; i < c.num_elements(); ++i) c.element(i).skew = theta;
    return c;
  });
}

TEST(ParametricSweep, Fig7ThreeSegments) {
  // The paper's Fig. 7: Tc(Δ41) has three linear segments with slopes
  // 0, 1/2, 1 breaking at Δ41 = 20 and Δ41 = 100.
  const Circuit c = circuits::example1(0.0);
  const lp::ParametricResult r =
      sweep_path_delay(c, circuits::example1_ld_path(), 0.0, 160.0, 33);
  ASSERT_EQ(r.segments.size(), 3u);
  EXPECT_NEAR(r.segments[0].slope, 0.0, 1e-6);
  EXPECT_NEAR(r.segments[1].slope, 0.5, 1e-6);
  EXPECT_NEAR(r.segments[2].slope, 1.0, 1e-6);
  EXPECT_NEAR(r.segments[0].theta_end, 20.0, 1e-6);
  EXPECT_NEAR(r.segments[1].theta_end, 100.0, 1e-6);
  EXPECT_NEAR(r.segments[0].value_begin, 80.0, 1e-6);
}

TEST(ParametricSweep, SamplesMatchDirectSolves) {
  const Circuit c = circuits::example1(0.0);
  const lp::ParametricResult r =
      sweep_path_delay(c, circuits::example1_ld_path(), 0.0, 160.0, 9);
  for (const lp::ParametricPoint& p : r.points) {
    EXPECT_NEAR(p.objective, circuits::example1_optimal_tc(p.theta), 1e-6)
        << "theta=" << p.theta;
  }
}

TEST(ParametricSweep, RespectsGeneratorOptions) {
  // With a generous minimum phase width the flat region lifts: widths eat
  // into the borrowing headroom.
  const Circuit c = circuits::example1(0.0);
  GeneratorOptions opt;
  opt.min_phase_width = 55.0;
  const lp::ParametricResult with_opt =
      sweep_path_delay(c, circuits::example1_ld_path(), 0.0, 40.0, 5, opt);
  const lp::ParametricResult without =
      sweep_path_delay(c, circuits::example1_ld_path(), 0.0, 40.0, 5);
  ASSERT_EQ(with_opt.points.size(), without.points.size());
  for (size_t i = 0; i < with_opt.points.size(); ++i) {
    EXPECT_GE(with_opt.points[i].objective, without.points[i].objective - 1e-9);
  }
}

}  // namespace
}  // namespace mintc::opt
