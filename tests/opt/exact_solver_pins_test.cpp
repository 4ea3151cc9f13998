// Bit pins for both graph optimizers: every output of
// minimize_cycle_time_exact and minimize_cycle_time_graph (Tc*, schedule,
// departures, the critical rows' names, a and k, the Newton steps, ulp
// raises, search steps and relaxation counts) hashed with FNV-1a over
//
//   * the paper's circuits under each generator option family, and the
//     exact solver's Newton path from a zero lower bound;
//   * fuzz seeds 1-2000;
//   * svcbench schedule_design's six designs, built as it builds them
//     (written to .lct and read back), under a fixed stream of +-10%
//     single-delay edits.
//
// The constants were recorded while the exact solver still copied its
// difference system into a graph::Digraph for Howard and Bellman-Ford
// recomputed each row's weight on every pass. A change to either solver
// that moves one bit of one answer, or one relaxation, changes a hash.
// svcbench's reference check (the bisection) cannot catch such a change:
// it shares the difference system and its Bellman-Ford with the exact
// solver.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "circuits/appendix_fig1.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "obs/export.h"
#include "opt/graph_solver.h"
#include "parser/lct.h"

namespace mintc::opt {
namespace {

void hash_vector(obs::Fnv1a& h, const std::vector<double>& v) {
  h.u64(v.size());
  for (const double x : v) h.num(x);
}

void hash_schedule(obs::Fnv1a& h, const ClockSchedule& s) {
  h.num(s.cycle);
  hash_vector(h, s.start);
  hash_vector(h, s.width);
}

void hash_exact(obs::Fnv1a& h, const Expected<ExactSolveResult>& r) {
  if (!r) {
    h.i32(-1).i32(static_cast<std::int32_t>(r.error().kind));
    return;
  }
  h.num(r->min_cycle);
  hash_schedule(h, r->schedule);
  hash_vector(h, r->departure);
  h.u64(r->critical_cycle.size());
  for (const CycleRow& row : r->critical_cycle) h.str(row.name).num(row.a).i32(row.k);
  h.i32(r->newton_steps).i32(r->ulp_raises).u64(static_cast<std::uint64_t>(r->relaxations));
}

void hash_graph(obs::Fnv1a& h, const Expected<GraphSolveResult>& r) {
  if (!r) {
    h.i32(-1).i32(static_cast<std::int32_t>(r.error().kind));
    return;
  }
  h.num(r->min_cycle);
  hash_schedule(h, r->schedule);
  hash_vector(h, r->departure);
  h.i32(r->search_steps).u64(static_cast<std::uint64_t>(r->relaxations));
}

void hash_both(obs::Fnv1a& h, const Circuit& c, const GraphSolveOptions& options = {}) {
  hash_exact(h, minimize_cycle_time_exact(c, options));
  hash_graph(h, minimize_cycle_time_graph(c, options));
}

void expect_hash(const obs::Fnv1a& h, std::uint64_t want) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llxull", static_cast<unsigned long long>(h.digest()));
  EXPECT_EQ(h.digest(), want) << "answers hash to " << hex;
}

TEST(ExactSolverPins, PaperCircuitsUnderEveryGeneratorFamily) {
  GeneratorOptions hold;
  hold.hold_constraints = true;
  GeneratorOptions arrival;
  arrival.arrival_based_setup = true;
  GeneratorOptions margins;
  margins.min_phase_width = 4.0;
  margins.min_phase_separation = 2.0;
  GeneratorOptions overlap;
  overlap.enforce_nonoverlap = false;
  const Circuit circuits[] = {circuits::example1(80.0), circuits::example1(0.0),
                              circuits::example1(160.0), circuits::example2(),
                              circuits::gaas_datapath(), circuits::appendix_fig1()};
  obs::Fnv1a h;
  for (const GeneratorOptions& generator : {GeneratorOptions{}, hold, arrival, margins, overlap}) {
    GraphSolveOptions options;
    options.generator = generator;
    for (const Circuit& c : circuits) {
      hash_both(h, c, options);
      hash_exact(h, minimize_cycle_time_from(c, 0.0, options));
    }
  }
  expect_hash(h, 0xb1134132c0761a2cull);
}

TEST(ExactSolverPins, FuzzSeeds) {
  obs::Fnv1a h;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) hash_both(h, check::fuzz_circuit(seed));
  expect_hash(h, 0x57894ade304f8c37ull);
}

TEST(ExactSolverPins, ScheduleDesignUnderDelayEdits) {
  struct Shape {
    int phases, stages;
  };
  // schedule_design's sd0..sd5: 32, 48, 56, 72, 80 and 96 latches.
  const Shape shapes[] = {{2, 8}, {3, 12}, {2, 14}, {3, 18}, {2, 20}, {3, 24}};
  constexpr int kEdits = 250;
  std::mt19937_64 rng(3100);
  obs::Fnv1a h;
  for (int i = 0; i < 6; ++i) {
    circuits::SyntheticParams p;
    p.num_phases = shapes[i].phases;
    p.num_stages = shapes[i].stages;
    p.latches_per_stage = 4;
    p.extra_long_edges = 4;
    Circuit c = parser::parse_circuit(parser::write_circuit(circuits::synthetic_circuit(
                                          p, 3101 + static_cast<std::uint64_t>(i))))
                    .value();
    std::vector<double> base;
    for (const CombPath& path : c.paths()) base.push_back(path.delay);
    std::uniform_int_distribution<int> pick(0, c.num_paths() - 1);
    std::uniform_real_distribution<double> scale(0.9, 1.1);
    hash_both(h, c);
    for (int e = 0; e < kEdits; ++e) {
      const int path = pick(rng);
      const double delay = base[static_cast<size_t>(path)] * scale(rng);
      if (delay < c.path(path).min_delay) continue;
      c.set_path_delay(path, delay);
      hash_both(h, c);
    }
  }
  expect_hash(h, 0x10def938b6ed40b3ull);
}

}  // namespace
}  // namespace mintc::opt
