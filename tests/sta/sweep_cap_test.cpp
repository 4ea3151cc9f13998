// The sweep-cap bugfix: hitting FixpointOptions::max_sweeps must surface as
// a distinct non-converged status carrying the outstanding residual, never
// as a silently truncated "result"; and the default budget now scales with
// the element count instead of capping million-latch chains at 100000.
#include <gtest/gtest.h>

#include <limits>

#include "circuits/example2.h"
#include "netlist/generators.h"
#include "sta/analysis.h"
#include "sta/fixpoint.h"

namespace mintc::sta {
namespace {

Circuit two_latch_ring(double delay) {
  Circuit c("ring2", 2);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 2, 1.0, 2.0);
  c.add_path("A", "B", delay);
  c.add_path("B", "A", delay);
  return c;
}

// A convergent ring that genuinely needs ~l sweeps from the zero start.
// Under symmetric_schedule(2, 100) each cross-phase edge carries shift -50
// and every latch has dq = 2, so the chain edges i -> i-1 (delay 53) each add
// +5 while the closing edge 0 -> l-1 (delay 0) subtracts 48: the loop gain is
// 5(l-1) - 48 < 0 for small l, but the +5 chain runs AGAINST element order,
// so the engine's ascending-index sweep propagates one hop per sweep.
Circuit slow_ring(int l) {
  Circuit c("slow_ring", 2);
  for (int i = 0; i < l; ++i) {
    c.add_latch("n" + std::to_string(i), (i % 2) + 1, 1.0, 2.0);
  }
  for (int i = 1; i < l; ++i) c.add_path(i, i - 1, 53.0);
  c.add_path(0, l - 1, 0.0);
  return c;
}

TEST(SweepCap, EffectiveBudgetScalesWithElements) {
  FixpointOptions opt;  // default max_sweeps = 0 -> auto
  // Small circuits keep the historical floor.
  EXPECT_EQ(opt.effective_max_sweeps(0), 100000);
  EXPECT_EQ(opt.effective_max_sweeps(1000), 100000);
  // Beyond the floor the budget grows with l: a depth-l ring swept against
  // its order needs ~l sweeps before information crosses it even once.
  EXPECT_EQ(opt.effective_max_sweeps(1000000), 4 * 1000000 + 1024);
  // And saturates instead of overflowing int.
  EXPECT_EQ(opt.effective_max_sweeps(std::numeric_limits<int>::max()),
            std::numeric_limits<int>::max());
  // An explicit setting is honored verbatim.
  opt.max_sweeps = 7;
  EXPECT_EQ(opt.effective_max_sweeps(1000000), 7);
}

TEST(SweepCap, SweepLimitIsADistinctStatusWithResidual) {
  // A convergent ring starved to a 1-sweep budget: the solve must report
  // kSweepLimit (not converged, not diverged) and a positive residual.
  const Circuit c = slow_ring(6);
  const ClockSchedule sch = symmetric_schedule(2, 100.0);
  FixpointOptions opt;
  opt.max_sweeps = 1;
  const FixpointResult r = compute_departures(c, sch, std::vector<double>(6, 0.0), opt);
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(r.status, FixpointStatus::kSweepLimit);
  EXPECT_TRUE(r.hit_sweep_limit());
  EXPECT_GT(r.residual, 0.0);
}

TEST(SweepCap, ConvergedAndDivergedStatusesAreLabelled) {
  const Circuit c = two_latch_ring(30.0);
  const FixpointResult ok =
      compute_departures(c, symmetric_schedule(2, 100.0), {0.0, 0.0});
  EXPECT_EQ(ok.status, FixpointStatus::kConverged);
  EXPECT_FALSE(ok.hit_sweep_limit());
  EXPECT_EQ(ok.residual, 0.0);

  // Overlapping single-phase schedule with a fat loop: positive gain.
  const FixpointResult bad =
      compute_departures(c, ClockSchedule(10.0, {0.0, 0.0}, {10.0, 10.0}), {0.0, 0.0});
  EXPECT_EQ(bad.status, FixpointStatus::kDiverged);
  EXPECT_TRUE(bad.diverged);
  EXPECT_FALSE(bad.hit_sweep_limit());
}

TEST(SweepCap, ResidualShrinksWithBudget) {
  // More budget -> closer to the fixpoint: the reported residual must be
  // monotonically nonincreasing in max_sweeps for a monotone iteration.
  const Circuit c = slow_ring(8);
  const ClockSchedule sch = symmetric_schedule(2, 100.0);
  double last = std::numeric_limits<double>::infinity();
  int starved = 0;
  for (const int budget : {1, 2, 4, 8}) {
    FixpointOptions opt;
    opt.max_sweeps = budget;
    const FixpointResult r =
        compute_departures(c, sch, std::vector<double>(8, 0.0), opt);
    if (r.converged) break;
    ++starved;
    EXPECT_LE(r.residual, last) << budget;
    last = r.residual;
  }
  EXPECT_GE(starved, 2);  // the ring is deep enough that small budgets starve
}

TEST(SweepCap, DeepPipelineConvergesUnderTheAutoBudget) {
  // The bug this fix exists for: a chain deeper than the old fixed default
  // would silently "finish" at 100000 Jacobi sweeps. The auto budget must
  // cover it. (Depth here is reduced from 10^6 to keep tier-1 fast; the
  // budget math is exercised identically and the full scale runs in
  // bench_view_fixpoint --huge.)
  netlist::DeepPipelineConfig cfg;
  cfg.depth = 2000;
  cfg.width = 1;
  cfg.fanin = 1;
  const Circuit c = netlist::make_deep_pipeline(cfg);
  const ClockSchedule sch =
      netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay);
  const FixpointResult r = compute_departures(
      c, sch, std::vector<double>(static_cast<size_t>(c.num_elements()), 0.0));
  EXPECT_EQ(r.status, FixpointStatus::kConverged) << "residual " << r.residual;
}

TEST(SweepCap, EarlyDeparturesUseTheAutoBudgetToo) {
  // Regression: compute_early_departures used to read max_sweeps raw; with
  // the new auto default (0) that meant ZERO sweeps and instant "success".
  const Circuit c = circuits::example2();
  const auto sch = symmetric_schedule(c.num_phases(), 400.0);
  const FixpointResult early = compute_early_departures(c, sch);
  EXPECT_TRUE(early.converged);
  EXPECT_EQ(early.status, FixpointStatus::kConverged);
  EXPECT_GT(early.sweeps, 0);
}

TEST(SweepCap, ReportDistinguishesSweepLimitFromDivergence) {
  const Circuit c = slow_ring(6);
  AnalysisOptions opt;
  opt.fixpoint.max_sweeps = 1;
  const TimingReport rep = check_schedule(c, symmetric_schedule(2, 100.0), opt);
  EXPECT_FALSE(rep.converged);
  const std::string text = rep.to_string(c);
  EXPECT_NE(text.find("sweep budget"), std::string::npos) << text;
  EXPECT_NE(text.find("residual"), std::string::npos) << text;
  EXPECT_EQ(text.find("positive latch loop"), std::string::npos) << text;
}

}  // namespace
}  // namespace mintc::sta
