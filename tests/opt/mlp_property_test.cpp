// Parameterized property tests for Algorithm MLP over synthetic circuits.
//
// Invariants checked on every (params, seed) instance (DESIGN.md §5):
//   1. Theorem 1: the slid solution satisfies P1 exactly.
//   2. The analysis engine confirms the designed schedule (checkTc PASS).
//   3. Tc* >= maximum cycle ratio of the latch graph (independent bound,
//      computed by two unrelated algorithms).
//   4. Shrinking the schedule by 2% breaks feasibility (local optimality).
//   5. Constraint-count formula: rows grow as predicted by Section IV.
#include <gtest/gtest.h>

#include <cmath>

#include "check/oracle.h"
#include "circuits/synthetic.h"
#include "graph/cycle_ratio.h"
#include "opt/critical.h"
#include "opt/mlp.h"
#include "sta/analysis.h"

namespace mintc::opt {
namespace {

struct Config {
  circuits::SyntheticParams params;
  uint64_t seed = 0;
};

class MlpPropertyTest : public testing::TestWithParam<Config> {};

TEST_P(MlpPropertyTest, TheoremOneAndCertificates) {
  const Config& cfg = GetParam();
  const Circuit c = circuits::synthetic_circuit(cfg.params, cfg.seed);
  ASSERT_TRUE(c.validate().empty());

  const auto r = minimize_cycle_time(c);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_GT(r->min_cycle, 0.0);

  // (1) P1 feasibility of the slid point.
  EXPECT_TRUE(satisfies_p1(c, r->schedule, r->departure, 1e-5));

  // (2) checkTc agreement.
  const sta::TimingReport rep = sta::check_schedule(c, r->schedule);
  EXPECT_TRUE(rep.feasible);

  // (3) cycle-ratio lower bound via two independent algorithms: Howard's
  // policy iteration, and the largest ratio over the enumerated loops.
  const auto howard = graph::max_cycle_ratio_howard(c.latch_graph());
  if (howard) {
    EXPECT_GE(r->min_cycle, howard->ratio - 1e-5);
  }
  const LoopReport loops = analyze_loops(c);
  if (!loops.loops.empty()) {
    EXPECT_GE(r->min_cycle, loops.loops.front().implied_tc - 1e-5);
  }

  // (4) local optimality: 2% tighter is infeasible.
  EXPECT_FALSE(sta::check_schedule(c, r->schedule.scaled(0.98)).feasible);

  // (5) row accounting matches the generator's own counts and stays inside
  // the paper's bound (plus the bounds rows we track separately).
  const GeneratedLp g = generate_lp(c);
  EXPECT_EQ(g.model.num_rows(), g.counts.rows());
  EXPECT_EQ(r->counts.rows(), g.counts.rows());
  const int k = c.num_phases();
  const int l = c.num_elements();
  const int f = c.max_fanin();
  EXPECT_LE(g.counts.rows(), 3 * k - 1 + k * k + (f + 1) * l);
}

TEST_P(MlpPropertyTest, UpdateSchemesConverge) {
  // The engine's slide and the paper's Jacobi iteration, both from the LP
  // point, converge to departures that satisfy P1 and agree.
  const Config& cfg = GetParam();
  const Circuit c = circuits::synthetic_circuit(cfg.params, cfg.seed);
  const auto r = minimize_cycle_time(c);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_TRUE(satisfies_p1(c, r->schedule, r->departure, 1e-5));
  const sta::FixpointResult jacobi =
      check::jacobi_departures(c, r->schedule, r->lp_departure);
  ASSERT_TRUE(jacobi.converged);
  EXPECT_TRUE(satisfies_p1(c, r->schedule, jacobi.departure, 1e-5));
  for (size_t i = 0; i < jacobi.departure.size(); ++i) {
    EXPECT_NEAR(r->departure[i], jacobi.departure[i], 1e-6) << c.element(static_cast<int>(i)).name;
  }
}

std::vector<Config> make_configs() {
  std::vector<Config> configs;
  // Two-phase pipelines of several sizes.
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Config c;
    c.params.num_phases = 2;
    c.params.num_stages = 6;
    c.params.latches_per_stage = 3;
    c.seed = seed;
    configs.push_back(c);
  }
  // Three- and four-phase circuits.
  for (const int k : {3, 4}) {
    for (const uint64_t seed : {10u, 11u}) {
      Config c;
      c.params.num_phases = k;
      c.params.num_stages = 2 * k;
      c.params.latches_per_stage = 2;
      c.params.fanin = 2;
      c.seed = seed;
      configs.push_back(c);
    }
  }
  // A wider, denser instance.
  {
    Config c;
    c.params.num_phases = 2;
    c.params.num_stages = 10;
    c.params.latches_per_stage = 5;
    c.params.fanin = 4;
    c.params.extra_long_edges = 8;
    c.seed = 77;
    configs.push_back(c);
  }
  // Skewed-delay instances (heavy spread stresses the fixpoint and bounds).
  for (const uint64_t seed : {301u, 302u}) {
    Config c;
    c.params.num_phases = 3;
    c.params.num_stages = 6;
    c.params.latches_per_stage = 2;
    c.params.min_delay = 1.0;
    c.params.max_delay = 120.0;
    c.seed = seed;
    configs.push_back(c);
  }
  // A single-phase design (every path crosses the full cycle).
  {
    Config c;
    c.params.num_phases = 1;
    c.params.num_stages = 4;
    c.params.latches_per_stage = 3;
    c.seed = 55;
    configs.push_back(c);
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(Synthetic, MlpPropertyTest, testing::ValuesIn(make_configs()),
                         [](const testing::TestParamInfo<Config>& param_info) {
                           const Config& c = param_info.param;
                           return "k" + std::to_string(c.params.num_phases) + "s" +
                                  std::to_string(c.params.num_stages) + "l" +
                                  std::to_string(c.params.latches_per_stage) + "seed" +
                                  std::to_string(c.seed);
                         });

}  // namespace
}  // namespace mintc::opt
