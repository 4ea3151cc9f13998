#include "graph/cycles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "graph/cycle_ratio.h"

namespace mintc::graph {
namespace {

TEST(Cycles, SingleLoop) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 2.0, 0.0);
  g.add_edge(2, 0, 3.0, 1.0);
  std::vector<SimpleCycle> cycles;
  EXPECT_TRUE(enumerate_simple_cycles(g, cycles));
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].edges.size(), 3u);
  EXPECT_DOUBLE_EQ(cycles[0].weight_sum, 6.0);
  EXPECT_DOUBLE_EQ(cycles[0].transit_sum, 2.0);
  EXPECT_DOUBLE_EQ(cycles[0].ratio(), 3.0);
}

TEST(Cycles, SelfLoopAndParallelEdges) {
  Digraph g(2);
  g.add_edge(0, 0, 5.0, 1.0);  // self loop
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 0, 1.0, 1.0);
  g.add_edge(1, 0, 2.0, 1.0);  // parallel: two distinct 2-cycles
  std::vector<SimpleCycle> cycles;
  EXPECT_TRUE(enumerate_simple_cycles(g, cycles));
  EXPECT_EQ(cycles.size(), 3u);
}

TEST(Cycles, AcyclicGraphHasNone) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  std::vector<SimpleCycle> cycles;
  EXPECT_TRUE(enumerate_simple_cycles(g, cycles));
  EXPECT_TRUE(cycles.empty());
}

TEST(Cycles, CompleteGraphCountIsKnown) {
  // K4 (directed, both directions): simple cycles = 4C2 * 1 (2-cycles: 6)
  // + 4C3 * 2 (3-cycles: 8) + 3! (4-cycles: 6) = 20.
  Digraph g(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) g.add_edge(i, j);
    }
  }
  std::vector<SimpleCycle> cycles;
  EXPECT_TRUE(enumerate_simple_cycles(g, cycles));
  EXPECT_EQ(cycles.size(), 20u);
}

TEST(Cycles, TruncationReported) {
  Digraph g(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (i != j) g.add_edge(i, j);
    }
  }
  std::vector<SimpleCycle> cycles;
  EXPECT_FALSE(enumerate_simple_cycles(g, cycles, 10));
  EXPECT_EQ(cycles.size(), 10u);
}

TEST(Cycles, EachCycleReportedOnce) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(1, 0);
  std::vector<SimpleCycle> cycles;
  EXPECT_TRUE(enumerate_simple_cycles(g, cycles));
  EXPECT_EQ(cycles.size(), 2u);  // the 4-ring and the 0<->1 2-cycle
}

TEST(Cycles, BruteForceCrossChecksCycleRatio) {
  // The maximum ratio over enumerated cycles must equal Howard's.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> w(0.5, 15.0);
  std::uniform_int_distribution<int> node(0, 6);
  for (int trial = 0; trial < 60; ++trial) {
    Digraph g(7);
    for (int v = 0; v < 7; ++v) g.add_edge(v, (v + 1) % 7, w(rng), 1.0);
    for (int e = 0; e < 8; ++e) g.add_edge(node(rng), node(rng), w(rng), 1.0);
    std::vector<SimpleCycle> cycles;
    ASSERT_TRUE(enumerate_simple_cycles(g, cycles, 100000)) << "trial " << trial;
    ASSERT_FALSE(cycles.empty());
    double best = -1e18;
    for (const SimpleCycle& c : cycles) best = std::max(best, c.ratio());
    const auto howard = max_cycle_ratio_howard(g);
    ASSERT_TRUE(howard) << "trial " << trial;
    EXPECT_NEAR(howard->ratio, best, 1e-5) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mintc::graph
