#include "sta/fixpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "check/oracle.h"
#include "circuits/example1.h"

namespace mintc::sta {
namespace {

// The example-1 optimum at Δ41 = 80: Tc = 110, phi1 = [0,80), phi2 = [80,110).
ClockSchedule example1_schedule() { return ClockSchedule(110.0, {0.0, 80.0}, {80.0, 30.0}); }

TEST(Fixpoint, DepartureUpdateMatchesHandComputation) {
  const Circuit c = circuits::example1(80.0);
  const ClockSchedule sch = example1_schedule();
  // With all departures zero: D1 candidate from L4: 0 + 10 + 80 + S(2,1)
  // = 90 + (80 - 0 - 110) = 60.
  const std::vector<double> zero(4, 0.0);
  EXPECT_NEAR(departure_update(c, sch, zero, 0), 60.0, 1e-9);
  // D2 from L1: 0 + 10 + 20 + S(1,2) = 30 + (0 - 80) = -50 -> clamp 0.
  EXPECT_NEAR(departure_update(c, sch, zero, 1), 0.0, 1e-9);
}

TEST(Fixpoint, LeastFixpointFromZero) {
  const Circuit c = circuits::example1(80.0);
  const FixpointResult r =
      compute_departures(c, example1_schedule(), std::vector<double>(4, 0.0));
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.diverged);
  // Hand-computed least fixpoint: D = (60, 10, 10, 0).
  EXPECT_NEAR(r.departure[0], 60.0, 1e-9);
  EXPECT_NEAR(r.departure[1], 10.0, 1e-9);
  EXPECT_NEAR(r.departure[2], 10.0, 1e-9);
  EXPECT_NEAR(r.departure[3], 0.0, 1e-9);
}

TEST(Fixpoint, SchemesAgreeOnLeastFixpoint) {
  // The engine and the paper's Jacobi iteration (the check/ oracle, which
  // evaluates eq. 17 from the Circuit) reach the same least fixpoint; it is
  // exact here, so they agree to the last bit.
  const Circuit c = circuits::example1(120.0);
  const ClockSchedule sch(140.0, {0.0, 90.0}, {90.0, 50.0});
  const FixpointResult engine = compute_departures(c, sch, std::vector<double>(4, 0.0));
  const FixpointResult jacobi = check::jacobi_departures(c, sch, std::vector<double>(4, 0.0));
  ASSERT_TRUE(engine.converged && jacobi.converged);
  EXPECT_EQ(jacobi.residual, 0.0);
  EXPECT_EQ(engine.departure, jacobi.departure);
}

TEST(Fixpoint, MonotoneFromBelowAndAbove) {
  // From zero the iteration climbs; from a large feasible point it slides
  // down; both are fixpoints of eq. (17).
  const Circuit c = circuits::example1(80.0);
  const ClockSchedule sch = example1_schedule();
  const FixpointResult lo = compute_departures(c, sch, std::vector<double>(4, 0.0));
  const FixpointResult hi = compute_departures(c, sch, {70.0, 20.0, 20.0, 10.0});
  ASSERT_TRUE(lo.converged && hi.converged);
  for (int i = 0; i < 4; ++i) {
    const double dlo = lo.departure[static_cast<size_t>(i)];
    const double dhi = hi.departure[static_cast<size_t>(i)];
    EXPECT_LE(dlo, dhi + 1e-9);
    EXPECT_NEAR(departure_update(c, sch, lo.departure, i), dlo, 1e-7);
    EXPECT_NEAR(departure_update(c, sch, hi.departure, i), dhi, 1e-7);
  }
}

TEST(Fixpoint, DivergenceDetectedOnOverlappedLoop) {
  // Two latches on the SAME phase in a loop with full overlap: the max
  // equations have no finite fixpoint (positive loop gain through +S with
  // ... actually S(1,1) = -Tc; make delays exceed Tc so the loop gains).
  Circuit c("race", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 1, 1.0, 2.0);
  c.add_path("A", "B", 30.0);
  c.add_path("B", "A", 30.0);
  // Tc = 10 < loop delay: each traversal adds (2+30-10) = 22.
  const ClockSchedule sch(10.0, {0.0}, {10.0});
  const FixpointResult r = compute_departures(c, sch, std::vector<double>(2, 0.0));
  EXPECT_TRUE(r.diverged);
  EXPECT_FALSE(r.converged);
}

TEST(Fixpoint, WarmReportsEachRaisedElementOnce) {
  // The same race with a creeping gain: each traversal adds
  // 2 + 8.001 - 10 = 0.001, so a warm climb would raise both latches
  // thousands of times on its way to the divergence bound. Its budget of 8
  // sweeps ends it after 16 updates, each of which raised a latch. The
  // raised list, which a session keeps, names each of them once.
  Circuit c("creep", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 1, 1.0, 2.0);
  c.add_path("A", "B", 8.001);
  c.add_path("B", "A", 8.001);
  const ClockSchedule sch(10.0, {0.0}, {10.0});
  const TimingView view(c);
  std::vector<int> raised;
  const FixpointResult r =
      warm_departures(view, ShiftTable(sch), std::vector<double>(2, 0.0), {0, 1}, {}, &raised);
  EXPECT_EQ(r.status, FixpointStatus::kSweepLimit);
  EXPECT_EQ(r.updates, 16);
  std::sort(raised.begin(), raised.end());
  EXPECT_EQ(raised, (std::vector<int>{0, 1}));
}

TEST(Fixpoint, FlipFlopPinnedAtZero)  {
  Circuit c("ff", 2);
  c.add_latch("L", 1, 1.0, 2.0);
  c.add_flipflop("F", 2, 1.0, 2.0);
  c.add_path("L", "F", 5.0);
  c.add_path("F", "L", 5.0);
  const ClockSchedule sch(40.0, {0.0, 20.0}, {20.0, 20.0});
  const FixpointResult r = compute_departures(c, sch, std::vector<double>(2, 0.0));
  ASSERT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.departure[1], 0.0);
}

TEST(Fixpoint, ArrivalsMatchEq14) {
  const Circuit c = circuits::example1(80.0);
  const ClockSchedule sch = example1_schedule();
  const FixpointResult r = compute_departures(c, sch, std::vector<double>(4, 0.0));
  const std::vector<double> a = compute_arrivals(c, sch, r.departure);
  // A2 = D1 + 10 + 20 + S(1,2) = 60 + 30 - 80 = 10.
  EXPECT_NEAR(a[1], 10.0, 1e-9);
  // A1 = D4 + 10 + 80 + S(2,1) = 0 + 90 - 30 = 60.
  EXPECT_NEAR(a[0], 60.0, 1e-9);
}

TEST(Fixpoint, NoFaninLatchHasMinusInfArrival) {
  Circuit c("pi", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  const ClockSchedule sch(10.0, {0.0}, {10.0});
  const std::vector<double> a = compute_arrivals(c, sch, {0.0});
  EXPECT_TRUE(std::isinf(a[0]));
  EXPECT_LT(a[0], 0.0);
}

TEST(Fixpoint, EventDrivenDoesFewerUpdatesOnSparseChange) {
  // A long pipeline where only the head moves: the event-driven warm path
  // touches the changed cone once, where Jacobi re-sweeps the whole chain.
  Circuit c("pipe", 2);
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    c.add_latch("L" + std::to_string(i), (i % 2) + 1, 1.0, 2.0);
  }
  // Delay exceeds the half-period slot so lateness accumulates down the
  // whole chain (D_i = 12*i) and the fixpoint takes n Jacobi sweeps.
  for (int i = 0; i + 1 < n; ++i) c.add_path(i, i + 1, 60.0);
  const ClockSchedule sch = symmetric_schedule(2, 100.0);
  const std::vector<double> zero(n, 0.0);
  const FixpointResult before = compute_departures(c, sch, zero);
  ASSERT_TRUE(before.converged);

  c.set_path_delay(n / 2, 61.0);  // slows only the tail half
  const TimingView view(c);
  const FixpointResult warm = warm_departures(view, ShiftTable(sch), before.departure,
                                              {c.path(n / 2).to});
  const FixpointResult jacobi = check::jacobi_departures(c, sch, zero);
  ASSERT_TRUE(warm.converged && jacobi.converged);
  EXPECT_LT(warm.updates, jacobi.updates);
  EXPECT_EQ(warm.departure, jacobi.departure);
  EXPECT_EQ(warm.departure, compute_departures(c, sch, zero).departure);
}

}  // namespace
}  // namespace mintc::sta
