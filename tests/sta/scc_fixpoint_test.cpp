// The SCC-ordered engine (the LEADOUT partition, paper Section II) against
// the paper's Jacobi iteration, kept as the check/ oracle.
#include <gtest/gtest.h>

#include "check/oracle.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "opt/mlp.h"
#include "sta/analysis.h"
#include "sta/fixpoint.h"

namespace mintc::sta {
namespace {

TEST(SccOrdered, AgreesWithOtherSchemesEverywhere) {
  for (const Circuit& c : {circuits::example1(120.0), circuits::example2(),
                           circuits::gaas_datapath()}) {
    const auto r = opt::minimize_cycle_time(c);
    ASSERT_TRUE(r) << c.name();
    const ClockSchedule sch = r->schedule.scaled(1.02);
    const std::vector<double> zero(static_cast<size_t>(c.num_elements()), 0.0);
    const FixpointResult engine = compute_departures(c, sch, zero);
    const FixpointResult jacobi = check::jacobi_departures(c, sch, zero);
    ASSERT_TRUE(engine.converged && jacobi.converged) << c.name();
    // Every loop has negative gain at 1.02x the optimum: both land on the
    // exact least fixpoint.
    EXPECT_EQ(engine.departure, jacobi.departure) << c.name();
  }
}

TEST(SccOrdered, FewerUpdatesOnChainOfLoops) {
  // Three feedback loops in series: Jacobi re-sweeps everything until the
  // last loop settles; SCC ordering settles each loop once.
  Circuit c("chain", 2);
  const int loops = 3;
  const int per = 6;
  for (int g = 0; g < loops; ++g) {
    for (int i = 0; i < per; ++i) {
      c.add_latch("G" + std::to_string(g) + "L" + std::to_string(i), (i % 2) + 1, 1.0, 2.0);
    }
    const int base = g * per;
    for (int i = 0; i < per; ++i) c.add_path(base + i, base + (i + 1) % per, 55.0);
    if (g > 0) c.add_path(base - 1, base, 55.0);  // bridge from previous loop
  }
  const ClockSchedule sch = symmetric_schedule(2, 400.0);
  const std::vector<double> zero(static_cast<size_t>(c.num_elements()), 0.0);
  const FixpointResult engine = compute_departures(c, sch, zero);
  const FixpointResult jacobi = check::jacobi_departures(c, sch, zero);
  ASSERT_TRUE(engine.converged && jacobi.converged);
  EXPECT_LE(engine.updates, jacobi.updates);
  EXPECT_EQ(engine.departure, jacobi.departure);
}

TEST(SccOrdered, DetectsDivergence) {
  Circuit c("race", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 1, 1.0, 2.0);
  c.add_path("A", "B", 30.0);
  c.add_path("B", "A", 30.0);
  const FixpointResult r =
      compute_departures(c, ClockSchedule(10.0, {0.0}, {10.0}), {0.0, 0.0});
  EXPECT_TRUE(r.diverged);
  EXPECT_FALSE(r.converged);
}

TEST(SccOrdered, WorksInsideMlp) {
  const auto r = opt::minimize_cycle_time(circuits::example1(80.0));
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->min_cycle, 110.0, 1e-6);
  EXPECT_TRUE(opt::satisfies_p1(circuits::example1(80.0), r->schedule, r->departure));
}

}  // namespace
}  // namespace mintc::sta
