#include "graph/cycle_ratio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "graph/cycles.h"

namespace mintc::graph {
namespace {

TEST(CycleRatio, SingleLoop) {
  // One cycle: weight 10, transit 2 -> ratio 5.
  Digraph g(2);
  g.add_edge(0, 1, 4.0, 1.0);
  g.add_edge(1, 0, 6.0, 1.0);
  const auto howard = max_cycle_ratio_howard(g);
  ASSERT_TRUE(howard);
  EXPECT_NEAR(howard->ratio, 5.0, 1e-6);
  EXPECT_EQ(howard->cycle_edges.size(), 2u);
}

TEST(CycleRatio, PicksMaximumOfTwoLoops) {
  // Loop A: 10/2 = 5. Loop B: 9/1 = 9.
  Digraph g(4);
  g.add_edge(0, 1, 5.0, 1.0);
  g.add_edge(1, 0, 5.0, 1.0);
  g.add_edge(2, 3, 4.0, 0.0);
  g.add_edge(3, 2, 5.0, 1.0);
  const auto howard = max_cycle_ratio_howard(g);
  ASSERT_TRUE(howard);
  EXPECT_NEAR(howard->ratio, 9.0, 1e-6);
}

TEST(CycleRatio, SelfLoop) {
  Digraph g(1);
  g.add_edge(0, 0, 7.0, 2.0);
  const auto howard = max_cycle_ratio_howard(g);
  ASSERT_TRUE(howard);
  EXPECT_NEAR(howard->ratio, 3.5, 1e-6);
  ASSERT_EQ(howard->cycle_edges.size(), 1u);
}

TEST(CycleRatio, AcyclicReturnsNullopt) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 1.0, 1.0);
  EXPECT_FALSE(max_cycle_ratio_howard(g).has_value());
}

TEST(CycleRatio, CycleMustBeReachableThroughChoices) {
  // A tail leading into a cycle: ratio from the cycle only.
  Digraph g(4);
  g.add_edge(0, 1, 100.0, 1.0);  // tail edge, not on any cycle
  g.add_edge(1, 2, 2.0, 1.0);
  g.add_edge(2, 3, 2.0, 1.0);
  g.add_edge(3, 1, 2.0, 1.0);
  const auto howard = max_cycle_ratio_howard(g);
  ASSERT_TRUE(howard);
  EXPECT_NEAR(howard->ratio, 2.0, 1e-6);
}

TEST(CycleRatio, HowardCycleEdgesFormACycleAchievingRatio) {
  Digraph g(5);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> w(1.0, 10.0);
  // Ring plus chords.
  for (int v = 0; v < 5; ++v) g.add_edge(v, (v + 1) % 5, w(rng), 1.0);
  g.add_edge(0, 2, w(rng), 1.0);
  g.add_edge(2, 4, w(rng), 1.0);
  const auto howard = max_cycle_ratio_howard(g);
  ASSERT_TRUE(howard);
  double wsum = 0.0;
  double tsum = 0.0;
  for (const int e : howard->cycle_edges) {
    wsum += g.edge(e).weight;
    tsum += g.edge(e).transit;
    // consecutive edges chain head-to-tail
  }
  ASSERT_GT(tsum, 0.0);
  EXPECT_NEAR(wsum / tsum, howard->ratio, 1e-6);
}

TEST(CycleRatio, HowardMatchesEnumerationOnRandomGraphs) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> w(0.5, 20.0);
  std::uniform_int_distribution<int> node(0, 7);
  for (int trial = 0; trial < 50; ++trial) {
    Digraph g(8);
    // Guarantee one cycle, then add random edges with transit 1 (latch-graph
    // style: every edge crosses 0 or 1 boundaries, cycles always cross).
    for (int v = 0; v < 8; ++v) g.add_edge(v, (v + 1) % 8, w(rng), 1.0);
    for (int e = 0; e < 10; ++e) g.add_edge(node(rng), node(rng), w(rng), 1.0);
    std::vector<SimpleCycle> cycles;
    ASSERT_TRUE(enumerate_simple_cycles(g, cycles, 100000)) << "trial " << trial;
    double best = -1e18;
    for (const SimpleCycle& c : cycles) best = std::max(best, c.ratio());
    const auto howard = max_cycle_ratio_howard(g);
    ASSERT_TRUE(howard) << "trial " << trial;
    EXPECT_NEAR(howard->ratio, best, 1e-5) << "trial " << trial;
  }
}

TEST(CycleRatio, ZeroTransitPositiveCycleIsUnbounded) {
  Digraph g(2);
  g.add_edge(0, 1, 1.0, 0.0);
  g.add_edge(1, 0, 1.0, 0.0);
  const auto howard = max_cycle_ratio_howard(g);
  ASSERT_TRUE(howard);
  EXPECT_TRUE(std::isinf(howard->ratio));
}

TEST(CycleRatio, IterationCapDoesNotOverflowOnLargeGraphs) {
  // 10·n·E improvement rounds is 2.5e10 here, past int's range; wrapped to
  // a negative cap it would stop Howard before its first improvement. The
  // lowest-id policy follows the ring (ratio 1), and only an improvement
  // step finds the self-loop at node 0 (ratio 5).
  constexpr int kNodes = 50000;
  std::vector<Edge> edges;
  for (int v = 0; v < kNodes; ++v) edges.push_back({v, (v + 1) % kNodes, 1.0, 1.0});
  edges.push_back({0, 0, 5.0, 1.0});
  const auto howard = max_cycle_ratio_howard(kNodes, edges);
  ASSERT_TRUE(howard);
  EXPECT_EQ(howard->ratio, 5.0);
  EXPECT_EQ(howard->cycle_edges, std::vector<int>{kNodes});
  // The Digraph overload answers the same.
  Digraph g(kNodes);
  for (const Edge& e : edges) g.add_edge(e.from, e.to, e.weight, e.transit);
  const auto via_digraph = max_cycle_ratio_howard(g);
  ASSERT_TRUE(via_digraph);
  EXPECT_EQ(via_digraph->ratio, howard->ratio);
  EXPECT_EQ(via_digraph->cycle_edges, howard->cycle_edges);
}

}  // namespace
}  // namespace mintc::graph
