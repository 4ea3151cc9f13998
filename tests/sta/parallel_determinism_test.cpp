// Cross-thread-count determinism of the fixpoint engine.
//
// The contract under test: for any circuit and any schedule, the engine's
// departure vector is EXACTLY equal (operator==, i.e. bitwise for doubles
// without NaN) across every thread count and every kernel, and check_schedule
// reports the same departures and worst slacks at every num_threads. 200
// fuzzed circuits x {1, 2, 4, 8} threads; MLP-optimal schedules, where a
// zero-gain critical loop stops the solve at the eps deadband and any
// thread-dependent member order would show; and the two topological
// extremes: a single giant SCC (zero scheduling freedom, all parallelism in
// the kernel) and a 10^4-component soup (maximal scheduling freedom, the
// adversarial case for determinism).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "netlist/generators.h"
#include "opt/mlp.h"
#include "sta/analysis.h"
#include "sta/fixpoint.h"
#include "sta/parallel_fixpoint.h"

namespace mintc::sta {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

std::vector<double> zeros(const Circuit& c) {
  return std::vector<double>(static_cast<size_t>(c.num_elements()), 0.0);
}

// check_schedule at 0 threads is the reference: the engine at every thread
// count, and check_schedule at 1, 2 and 4 threads, must reproduce it exactly.
void expect_deterministic(const Circuit& c, const ClockSchedule& sch,
                          const std::string& what) {
  AnalysisOptions options;
  options.check_hold = true;
  const TimingReport ref = check_schedule(c, sch, options);
  ASSERT_TRUE(ref.converged) << what << ": reference did not converge";
  const TimingView view(c);
  const ShiftTable shifts(sch);
  for (const int threads : kThreadCounts) {
    ParallelFixpointOptions po;
    po.num_threads = threads;
    ParallelFixpoint engine(view, po);
    const FixpointResult par = engine.solve(shifts, zeros(c));
    ASSERT_TRUE(par.converged) << what << " threads=" << threads;
    ASSERT_EQ(par.departure, ref.fixpoint.departure)
        << what << " threads=" << threads << ": departures not bitwise equal";
    EXPECT_EQ(par.sweeps, ref.fixpoint.sweeps) << what << " threads=" << threads;
    EXPECT_EQ(par.updates, ref.fixpoint.updates) << what << " threads=" << threads;
  }
  // The analysis wiring inherits the property: reports built from equal
  // fixpoints compare equal field for field where derived from departures.
  for (const int threads : {1, 2, 4}) {
    options.num_threads = threads;
    const TimingReport rep = check_schedule(c, sch, options);
    EXPECT_EQ(rep.feasible, ref.feasible) << what << " num_threads=" << threads;
    EXPECT_EQ(rep.fixpoint.departure, ref.fixpoint.departure)
        << what << " num_threads=" << threads;
    EXPECT_EQ(rep.worst_setup_slack, ref.worst_setup_slack)
        << what << " num_threads=" << threads;
    EXPECT_EQ(rep.worst_setup_element, ref.worst_setup_element)
        << what << " num_threads=" << threads;
    EXPECT_EQ(rep.worst_hold_slack, ref.worst_hold_slack) << what << " num_threads=" << threads;
  }
}

TEST(ParallelDeterminism, TwoHundredFuzzSeeds) {
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
    expect_deterministic(c, sch, "seed " + std::to_string(seed));
  }
}

TEST(ParallelDeterminism, SingleGiantScc) {
  // A ring-closed pipeline: one nontrivial SCC spanning every latch. The
  // scheduler has exactly one shard — determinism must come from the kernel
  // and the member order alone.
  netlist::DeepPipelineConfig cfg;
  cfg.depth = 64;
  cfg.width = 16;
  cfg.fanin = 2;
  cfg.ring = true;
  const Circuit c = netlist::make_deep_pipeline(cfg);
  const TimingView view(c);
  ParallelFixpointOptions po;
  ParallelFixpoint probe(view, po);
  EXPECT_EQ(probe.num_components(), 1);
  expect_deterministic(
      c, netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay),
      "single-scc ring");
}

TEST(ParallelDeterminism, TenThousandComponentSoup) {
  // 10^4 independent rings + random cross edges: maximal scheduling freedom,
  // so any order-dependence in the engine would show up here as a
  // thread-count-dependent vector.
  netlist::SccSoupConfig cfg;
  cfg.num_sccs = 10000;
  cfg.scc_size = 3;
  cfg.cross_edges = 20000;
  cfg.seed = 7;
  const Circuit c = netlist::make_scc_soup(cfg);
  const TimingView view(c);
  const ShiftTable shifts(
      netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay));
  const FixpointResult ref = compute_departures(view, shifts, zeros(c));
  ASSERT_TRUE(ref.converged);
  for (const int threads : kThreadCounts) {
    ParallelFixpointOptions po;
    po.num_threads = threads;
    ParallelFixpoint engine(view, po);
    EXPECT_GE(engine.num_components(), 10000);
    const FixpointResult par = engine.solve(shifts, zeros(c));
    ASSERT_TRUE(par.converged) << threads;
    ASSERT_EQ(par.departure, ref.departure) << threads;
  }
}

TEST(ParallelDeterminism, AcyclicMeshWavefront) {
  // The mesh's diamond-shaped DAG exercises fork/join release patterns (two
  // successors per shard, two predecessors each) — the shape most likely to
  // expose a release-ordering bug.
  netlist::MeshConfig cfg;
  cfg.rows = 40;
  cfg.cols = 40;
  const Circuit c = netlist::make_mesh(cfg);
  expect_deterministic(
      c, netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay),
      "mesh 40x40");
}

TEST(ParallelDeterminism, GaasAtMlpOptimum) {
  // At the MLP optimum the critical loop has zero gain: the solve stops at
  // the eps deadband with a nonzero residual, where the member order decides
  // the last bits. Every thread count must still give the same ones.
  const Circuit c = circuits::gaas_datapath();
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r) << r.error().to_string();
  expect_deterministic(c, r->schedule, "gaas at the MLP optimum");
}

TEST(ParallelDeterminism, SyntheticAtMlpOptimum) {
  circuits::SyntheticParams p;
  p.num_phases = 2;
  p.num_stages = 14;
  p.latches_per_stage = 4;
  p.extra_long_edges = 4;
  const Circuit c = circuits::synthetic_circuit(p, 3103);
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r) << r.error().to_string();
  expect_deterministic(c, r->schedule, "synthetic seed 3103 at the MLP optimum");
}

TEST(ParallelDeterminism, RepeatedSolvesAreStable) {
  // Same engine object, same inputs, many solves: no run-to-run drift (a
  // stale-state or uninitialized-memory bug would show here).
  netlist::SccSoupConfig cfg;
  cfg.num_sccs = 50;
  cfg.scc_size = 5;
  cfg.cross_edges = 100;
  const Circuit c = netlist::make_scc_soup(cfg);
  const TimingView view(c);
  const ShiftTable shifts(
      netlist::generator_schedule(cfg.num_phases, cfg.dq, cfg.delay));
  ParallelFixpointOptions po;
  po.num_threads = 4;
  ParallelFixpoint engine(view, po);
  const FixpointResult first = engine.solve(shifts, zeros(c));
  ASSERT_TRUE(first.converged);
  for (int run = 0; run < 10; ++run) {
    const FixpointResult again = engine.solve(shifts, zeros(c));
    ASSERT_EQ(again.departure, first.departure) << run;
  }
}

}  // namespace
}  // namespace mintc::sta
