// sta::FixpointEngine: the one eq. (17) engine, single-threaded. A prebuilt
// engine is reused across solves (sessions keep one per view), so the
// load-bearing property is that a reused engine reproduces check_schedule,
// which builds a fresh one per call, BIT for bit — departures, sweeps and
// updates. Pinned on 200 fuzzed circuits; on MLP-optimal schedules, where a
// zero-gain critical loop stops the solve at the eps deadband and the
// member order decides the last bits; and on the topological extremes: a
// single giant SCC, a 10^4-component soup and an acyclic mesh. The status
// semantics (divergence, sweep limit) and the session wiring ride along.
#include "sta/fixpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "netlist/generators.h"
#include "opt/mlp.h"
#include "sta/analysis.h"
#include "sta/session.h"

namespace mintc::sta {
namespace {

std::vector<double> zeros(const Circuit& c) {
  return std::vector<double>(static_cast<size_t>(c.num_elements()), 0.0);
}

// One engine, built once and solved twice (the second solve reuses the plan
// and must not drift), against check_schedule's departure fixpoint.
void expect_matches_check_schedule(const Circuit& c, const ClockSchedule& sch,
                                   const std::string& what) {
  AnalysisOptions options;
  options.check_hold = true;
  const TimingReport ref = check_schedule(c, sch, options);
  ASSERT_TRUE(ref.converged) << what << ": reference did not converge";
  const TimingView view(c);
  const ShiftTable shifts(sch);
  const FixpointEngine engine(view);
  for (int run = 0; run < 2; ++run) {
    const FixpointResult r = engine.solve(shifts, zeros(c));
    ASSERT_TRUE(r.converged) << what << " run " << run;
    ASSERT_EQ(r.departure, ref.fixpoint.departure)
        << what << " run " << run << ": departures not bitwise equal";
    EXPECT_EQ(r.sweeps, ref.fixpoint.sweeps) << what << " run " << run;
    EXPECT_EQ(r.updates, ref.fixpoint.updates) << what << " run " << run;
  }
}

TEST(FixpointEngine, TwoHundredFuzzSeeds) {
  // Same generator family the differential fuzzer uses; the schedule is the
  // always-convergent analytic one (every loop's mean hop cost is below
  // Tc/k — see generators.h), so all 200 seeds exercise the full solve.
  for (uint64_t seed = 0; seed < 200; ++seed) {
    circuits::SyntheticParams p;
    p.num_phases = 2 + static_cast<int>(seed % 3);       // 2..4 phases
    p.num_stages = 4 + static_cast<int>(seed % 5);       // 4..8 stages
    p.latches_per_stage = 2 + static_cast<int>(seed % 4);
    p.fanin = 1 + static_cast<int>(seed % 3);
    p.extra_long_edges = static_cast<int>(seed % 6);
    const Circuit c = circuits::synthetic_circuit(p, seed);
    // Tc > k * (dq + max_delay) gives every loop strictly negative gain.
    const ClockSchedule sch = symmetric_schedule(
        p.num_phases, 1.05 * p.num_phases * (p.dq + p.max_delay));
    expect_matches_check_schedule(c, sch, "seed " + std::to_string(seed));
  }
}

TEST(FixpointEngine, SingleGiantScc) {
  // A ring-closed pipeline: one nontrivial SCC spanning every latch, so the
  // member order the plan fixes is the whole story.
  netlist::DeepPipelineConfig cfg;
  cfg.depth = 64;
  cfg.width = 16;
  cfg.fanin = 2;
  cfg.ring = true;
  const Circuit c = netlist::make_deep_pipeline(cfg);
  const TimingView view(c);
  EXPECT_EQ(FixpointEngine(view).num_components(), 1);
  expect_matches_check_schedule(
      c, netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay), "single-scc ring");
}

TEST(FixpointEngine, TenThousandComponentSoup) {
  // 10^4 independent rings + random cross edges: the most components, each
  // solved once its upstream ones are final.
  netlist::SccSoupConfig cfg;
  cfg.num_sccs = 10000;
  cfg.scc_size = 3;
  cfg.cross_edges = 20000;
  cfg.seed = 7;
  const Circuit c = netlist::make_scc_soup(cfg);
  const TimingView view(c);
  EXPECT_GE(FixpointEngine(view).num_components(), 10000);
  expect_matches_check_schedule(
      c, netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay), "soup 10^4");
}

TEST(FixpointEngine, AcyclicMeshWavefront) {
  // The mesh's diamond-shaped DAG: every component has two predecessors, so
  // a component solved before its inputs were final would show here.
  netlist::MeshConfig cfg;
  cfg.rows = 40;
  cfg.cols = 40;
  const Circuit c = netlist::make_mesh(cfg);
  expect_matches_check_schedule(
      c, netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay), "mesh 40x40");
}

TEST(FixpointEngine, GaasAtMlpOptimum) {
  // At the MLP optimum the critical loop has zero gain: the solve stops at
  // the eps deadband with a nonzero residual, where the member order decides
  // the last bits.
  const Circuit c = circuits::gaas_datapath();
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r) << r.error().to_string();
  expect_matches_check_schedule(c, r->schedule, "gaas at the MLP optimum");
}

TEST(FixpointEngine, SyntheticAtMlpOptimum) {
  circuits::SyntheticParams p;
  p.num_phases = 2;
  p.num_stages = 14;
  p.latches_per_stage = 4;
  p.extra_long_edges = 4;
  const Circuit c = circuits::synthetic_circuit(p, 3103);
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r) << r.error().to_string();
  expect_matches_check_schedule(c, r->schedule, "synthetic seed 3103 at the MLP optimum");
}

TEST(FixpointEngine, EngineIsReusableAcrossSchedules) {
  // One partition, many solves — the session usage pattern.
  const Circuit c = circuits::example2();
  const TimingView view(c);
  const FixpointEngine engine(view);
  for (const double tc : {350.0, 400.0, 500.0}) {
    const ShiftTable shifts(symmetric_schedule(c.num_phases(), tc));
    const FixpointResult reused = engine.solve(shifts, zeros(c));
    const FixpointResult fresh = compute_departures(view, shifts, zeros(c));
    EXPECT_EQ(reused.status, fresh.status) << tc;
    EXPECT_EQ(reused.departure, fresh.departure) << tc;
  }
}

TEST(FixpointEngine, DivergenceVerdict) {
  Circuit c("race", 1);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 1, 1.0, 2.0);
  c.add_path("A", "B", 30.0);
  c.add_path("B", "A", 30.0);
  const ClockSchedule sch(10.0, {0.0}, {10.0});
  const TimingView view(c);
  const FixpointResult r = FixpointEngine(view).solve(ShiftTable(sch), zeros(c));
  EXPECT_TRUE(r.diverged);
  EXPECT_EQ(r.status, FixpointStatus::kDiverged);
  EXPECT_FALSE(r.converged);
  // The component stops at its first value past the divergence bound.
  double top = 0.0;
  for (const double d : r.departure) top = std::max(top, d);
  EXPECT_GT(top, divergence_bound(view, ShiftTable(sch)));
}

TEST(FixpointEngine, SweepLimitStatusCarriesResidual) {
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
  FixpointOptions options;
  options.max_sweeps = 1;  // starve the ring
  const TimingView view(c);
  const FixpointResult r = FixpointEngine(view, options).solve(ShiftTable(sch), zeros(c));
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(r.status, FixpointStatus::kSweepLimit);
  EXPECT_GT(r.residual, 0.0);
}

TEST(FixpointEngine, RepeatedSolvesAreStable) {
  // Same engine object, same inputs, many solves: no run-to-run drift (a
  // stale-state or uninitialized-memory bug would show here).
  netlist::SccSoupConfig cfg;
  cfg.num_sccs = 50;
  cfg.scc_size = 5;
  cfg.cross_edges = 100;
  const Circuit c = netlist::make_scc_soup(cfg);
  const TimingView view(c);
  const ShiftTable shifts(netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay));
  const FixpointEngine engine(view);
  const FixpointResult first = engine.solve(shifts, zeros(c));
  ASSERT_TRUE(first.converged);
  for (int run = 0; run < 10; ++run) {
    const FixpointResult again = engine.solve(shifts, zeros(c));
    ASSERT_EQ(again.departure, first.departure) << run;
    EXPECT_EQ(again.updates, first.updates) << run;
  }
}

TEST(FixpointEngine, SessionColdSolveMatchesCheckSchedule) {
  const Circuit c = circuits::example2();
  const ClockSchedule sch = symmetric_schedule(c.num_phases(), 400.0);
  AnalysisSession session(c, sch);
  const TimingReport& cold = session.analyze();
  const TimingReport ref = check_schedule(c, sch, AnalysisOptions{});
  EXPECT_EQ(cold.feasible, ref.feasible);
  EXPECT_EQ(cold.fixpoint.departure, ref.fixpoint.departure);
  EXPECT_EQ(cold.fixpoint.sweeps, ref.fixpoint.sweeps);
  EXPECT_EQ(cold.fixpoint.updates, ref.fixpoint.updates);
}

}  // namespace
}  // namespace mintc::sta
