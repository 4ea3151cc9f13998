// sta::ParallelFixpoint: the eq. (17) engine at every thread count. The
// load-bearing property is BIT-identity with the one-thread inline solve
// (compute_departures) — these tests pin it on the paper circuits, plus the
// status semantics, engine wiring and kernel dispatch.
#include "sta/parallel_fixpoint.h"

#include <gtest/gtest.h>

#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "netlist/generators.h"
#include "opt/mlp.h"
#include "sta/analysis.h"
#include "sta/relax_kernel.h"
#include "sta/session.h"

namespace mintc::sta {
namespace {

std::vector<double> zeros(const Circuit& c) {
  return std::vector<double>(static_cast<size_t>(c.num_elements()), 0.0);
}

FixpointResult inline_solve(const Circuit& c, const ClockSchedule& sch) {
  return compute_departures(c, sch, zeros(c));
}

TEST(ParallelFixpoint, BitIdenticalToScalarOnPaperCircuits) {
  for (const Circuit& c : {circuits::example1(120.0), circuits::example2(),
                           circuits::gaas_datapath()}) {
    const auto r = opt::minimize_cycle_time(c);
    ASSERT_TRUE(r) << c.name();
    const ClockSchedule sch = r->schedule.scaled(1.02);
    const FixpointResult ref = inline_solve(c, sch);
    ASSERT_TRUE(ref.converged) << c.name();
    const TimingView view(c);
    const ShiftTable shifts(sch);
    for (const int threads : {1, 2, 4}) {
      for (const RelaxKernelKind kernel :
           {RelaxKernelKind::kScalar, RelaxKernelKind::kAuto}) {
        ParallelFixpointOptions po;
        po.num_threads = threads;
        po.kernel = kernel;
        ParallelFixpoint engine(view, po);
        const FixpointResult par = engine.solve(shifts, zeros(c));
        ASSERT_TRUE(par.converged) << c.name();
        EXPECT_EQ(par.status, FixpointStatus::kConverged);
        // Exact ==, not EXPECT_NEAR: bit-identity is the contract.
        EXPECT_EQ(par.departure, ref.departure)
            << c.name() << " threads=" << threads
            << " kernel=" << to_string(engine.kernel());
      }
    }
  }
}

TEST(ParallelFixpoint, SolverStatsArePopulated) {
  const Circuit c = circuits::example2();
  const TimingView view(c);
  const ShiftTable shifts(symmetric_schedule(c.num_phases(), 400.0));
  ParallelFixpointOptions po;
  po.num_threads = 2;
  ParallelFixpoint engine(view, po);
  const FixpointResult r = engine.solve(shifts, zeros(c));
  ASSERT_TRUE(r.converged);
  const ParallelSolveStats& st = engine.last_stats();
  EXPECT_EQ(st.sccs, engine.num_components());
  EXPECT_GT(st.sccs, 0);
  EXPECT_EQ(st.threads, 2);
  EXPECT_GE(st.tasks, 1);
  EXPECT_GE(st.max_shard_sweeps, 1);
  EXPECT_GT(r.updates, 0);
  EXPECT_GT(r.stats.edge_relaxations, 0);
}

TEST(ParallelFixpoint, EngineIsReusableAcrossSchedules) {
  // One partition, many solves — the session usage pattern.
  const Circuit c = circuits::example2();
  const TimingView view(c);
  ParallelFixpointOptions po;
  po.num_threads = 2;
  ParallelFixpoint engine(view, po);
  for (const double tc : {350.0, 400.0, 500.0}) {
    const ShiftTable shifts(symmetric_schedule(c.num_phases(), tc));
    const FixpointResult par = engine.solve(shifts, zeros(c));
    const FixpointResult ref = compute_departures(view, shifts, zeros(c));
    EXPECT_EQ(par.converged, ref.converged) << tc;
    if (ref.converged) {
      EXPECT_EQ(par.departure, ref.departure) << tc;
    }
  }
}

TEST(ParallelFixpoint, DivergenceVerdictMatchesScalar) {
  Circuit c("race", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 1, 1.0, 2.0);
  c.add_path("A", "B", 30.0);
  c.add_path("B", "A", 30.0);
  const ClockSchedule sch(10.0, {0.0}, {10.0});
  const FixpointResult ref = inline_solve(c, sch);
  ASSERT_TRUE(ref.diverged);
  const TimingView view(c);
  const ShiftTable shifts(sch);
  for (const int threads : {1, 4}) {
    ParallelFixpointOptions po;
    po.num_threads = threads;
    const FixpointResult par = ParallelFixpoint(view, po).solve(shifts, zeros(c));
    EXPECT_TRUE(par.diverged) << threads;
    EXPECT_EQ(par.status, FixpointStatus::kDiverged) << threads;
    EXPECT_FALSE(par.converged) << threads;
    // Each component stops at its own first divergent value, so even the
    // abandoned vector is the same at every thread count.
    EXPECT_EQ(par.departure, ref.departure) << threads;
  }
}

TEST(ParallelFixpoint, SweepLimitStatusCarriesResidual) {
  // A convergent ring that needs ~l sweeps (the +5 chain runs against member
  // order, so each sweep advances one hop), starved to a 1-sweep budget.
  Circuit c("slow_ring", 2);
  const int l = 8;
  for (int i = 0; i < l; ++i) {
    c.add_latch("n" + std::to_string(i), (i % 2) + 1, 1.0, 2.0);
  }
  for (int i = 1; i < l; ++i) c.add_path(i, i - 1, 53.0);
  c.add_path(0, l - 1, 0.0);
  const ClockSchedule sch = symmetric_schedule(2, 100.0);
  ParallelFixpointOptions po;
  po.num_threads = 2;
  po.fixpoint.max_sweeps = 1;  // starve the ring
  const TimingView view(c);
  const FixpointResult par = ParallelFixpoint(view, po).solve(ShiftTable(sch), zeros(c));
  EXPECT_FALSE(par.converged);
  EXPECT_FALSE(par.diverged);
  EXPECT_EQ(par.status, FixpointStatus::kSweepLimit);
  EXPECT_GT(par.residual, 0.0);
}

TEST(ParallelFixpoint, CheckScheduleHonorsNumThreads) {
  const Circuit c = circuits::example2();
  const ClockSchedule sch = symmetric_schedule(c.num_phases(), 400.0);
  AnalysisOptions scalar_opt;
  scalar_opt.check_hold = true;
  const TimingReport ref = check_schedule(c, sch, scalar_opt);
  AnalysisOptions par_opt = scalar_opt;
  par_opt.num_threads = 2;
  const TimingReport par = check_schedule(c, sch, par_opt);
  ASSERT_TRUE(par.converged);
  EXPECT_EQ(par.feasible, ref.feasible);
  EXPECT_EQ(par.fixpoint.departure, ref.fixpoint.departure);
  EXPECT_EQ(par.worst_setup_slack, ref.worst_setup_slack);
}

TEST(ParallelFixpoint, SessionColdSolveUsesParallelEngine) {
  const Circuit c = circuits::example2();
  const ClockSchedule sch = symmetric_schedule(c.num_phases(), 400.0);
  AnalysisOptions opt;
  opt.num_threads = 2;
  AnalysisSession session(c, sch, opt);
  const TimingReport& warm = session.analyze();
  const TimingReport ref = check_schedule(c, sch, AnalysisOptions{});
  EXPECT_EQ(warm.feasible, ref.feasible);
  EXPECT_EQ(warm.fixpoint.departure, ref.fixpoint.departure);
}

TEST(ParallelFixpoint, OneThreadRunsInlineWithoutAPool) {
  const Circuit c = circuits::example2();
  const TimingView view(c);
  const ShiftTable shifts(symmetric_schedule(c.num_phases(), 400.0));
  ParallelFixpoint inline_engine(view);  // default: one thread
  const FixpointResult inline_result = inline_engine.solve(shifts, zeros(c));
  EXPECT_EQ(inline_engine.num_threads(), 1);
  EXPECT_EQ(inline_engine.last_stats().tasks, 0);  // nothing was submitted
  EXPECT_EQ(inline_engine.last_stats().steals, 0);
  ParallelFixpointOptions po;
  po.num_threads = 3;
  ParallelFixpoint pooled(view, po);
  const FixpointResult pooled_result = pooled.solve(shifts, zeros(c));
  EXPECT_EQ(pooled.num_threads(), 3);
  EXPECT_GE(pooled.last_stats().tasks, 1);
  EXPECT_EQ(pooled_result.departure, inline_result.departure);
  EXPECT_EQ(pooled_result.updates, inline_result.updates);
  EXPECT_EQ(pooled_result.sweeps, inline_result.sweeps);
}

TEST(RelaxKernel, RunMaxMatchesScalarLoop) {
  // Direct kernel-level check across run lengths covering the SIMD main
  // loop, the tail and the empty run.
  const Circuit c = circuits::gaas_datapath();
  const TimingView view(c);
  const ShiftTable shifts(symmetric_schedule(c.num_phases(), 400.0));
  std::vector<double> departure(static_cast<size_t>(c.num_elements()));
  for (size_t i = 0; i < departure.size(); ++i) {
    departure[i] = 0.37 * static_cast<double>(i % 17);
  }
  const RelaxRunFn scalar = relax_run_fn(RelaxKernelKind::kScalar);
  const RelaxRunFn fast = relax_run_fn(RelaxKernelKind::kAuto);
  for (int i = 0; i < c.num_elements(); ++i) {
    const double a = relax_element(scalar, view, shifts, departure, i);
    const double b = relax_element(fast, view, shifts, departure, i);
    EXPECT_EQ(a, b) << c.element(i).name;  // bitwise, not approx
  }
}

TEST(RelaxKernel, ResolveNeverReturnsAuto) {
  const RelaxKernelKind resolved = resolve_relax_kernel(RelaxKernelKind::kAuto);
  EXPECT_NE(resolved, RelaxKernelKind::kAuto);
  EXPECT_EQ(resolve_relax_kernel(RelaxKernelKind::kScalar), RelaxKernelKind::kScalar);
}

}  // namespace
}  // namespace mintc::sta
