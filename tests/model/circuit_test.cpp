#include "model/circuit.h"

#include <gtest/gtest.h>

#include <limits>

namespace mintc {
namespace {

Circuit two_phase_loop() {
  Circuit c("loop", 2);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 2, 1.0, 2.0);
  c.add_path("A", "B", 10.0, 2.0, "f");
  c.add_path("B", "A", 20.0, 4.0, "g");
  return c;
}

TEST(Circuit, BasicConstruction) {
  const Circuit c = two_phase_loop();
  EXPECT_EQ(c.name(), "loop");
  EXPECT_EQ(c.num_phases(), 2);
  EXPECT_EQ(c.num_elements(), 2);
  EXPECT_EQ(c.num_paths(), 2);
  EXPECT_EQ(c.element(0).name, "A");
  EXPECT_EQ(c.path(0).delay, 10.0);
  EXPECT_EQ(c.path(1).label, "g");
}

TEST(Circuit, FindElement) {
  const Circuit c = two_phase_loop();
  EXPECT_EQ(c.find_element("A"), std::optional<int>(0));
  EXPECT_EQ(c.find_element("B"), std::optional<int>(1));
  EXPECT_FALSE(c.find_element("nope").has_value());
}

TEST(Circuit, FaninFanout) {
  Circuit c("f", 2);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 2, 1.0, 2.0);
  c.add_latch("C", 2, 1.0, 2.0);
  c.add_path("A", "C", 1.0);
  c.add_path("B", "C", 1.0);
  EXPECT_EQ(c.fanin(2).size(), 2u);
  EXPECT_EQ(c.fanout(0).size(), 1u);
  EXPECT_TRUE(c.fanin(0).empty());
  EXPECT_EQ(c.max_fanin(), 2);
}

TEST(Circuit, SetPathDelay) {
  Circuit c = two_phase_loop();
  c.set_path_delay(1, 99.0);
  EXPECT_EQ(c.path(1).delay, 99.0);
}

TEST(Circuit, SetPathMinDelay) {
  Circuit c = two_phase_loop();
  c.set_path_min_delay(0, 7.5);
  EXPECT_EQ(c.path(0).min_delay, 7.5);
  EXPECT_EQ(c.path(0).delay, 10.0);  // max delay untouched
}

TEST(Circuit, KMatrixFromLatchPaths) {
  const Circuit c = two_phase_loop();
  const KMatrix k = c.k_matrix();
  EXPECT_TRUE(k.at(1, 2));
  EXPECT_TRUE(k.at(2, 1));
  EXPECT_FALSE(k.at(1, 1));
  EXPECT_FALSE(k.at(2, 2));
}

TEST(Circuit, FlipFlopPathsExemptFromK) {
  Circuit c("ff", 2);
  c.add_latch("L", 1, 1.0, 2.0);
  c.add_flipflop("F", 2, 1.0, 2.0);
  c.add_path("L", "F", 5.0);
  c.add_path("F", "L", 5.0);
  const KMatrix k = c.k_matrix();
  EXPECT_EQ(k.num_pairs(), 0);
}

TEST(Circuit, LatchGraphWeightsAndTransit) {
  const Circuit c = two_phase_loop();
  const graph::Digraph g = c.latch_graph();
  ASSERT_EQ(g.num_edges(), 2);
  // A(phi1) -> B(phi2): weight dq_A + delay = 2 + 10, transit C_12 = 0.
  EXPECT_DOUBLE_EQ(g.edge(0).weight, 12.0);
  EXPECT_DOUBLE_EQ(g.edge(0).transit, 0.0);
  // B(phi2) -> A(phi1): 2 + 20, transit C_21 = 1.
  EXPECT_DOUBLE_EQ(g.edge(1).weight, 22.0);
  EXPECT_DOUBLE_EQ(g.edge(1).transit, 1.0);
}

TEST(CircuitValidate, CleanCircuitPasses) {
  EXPECT_TRUE(two_phase_loop().validate().empty());
}

TEST(CircuitValidate, PhaseOutOfRange) {
  Circuit c("bad", 2);
  Element e;
  e.name = "X";
  e.phase = 3;
  e.setup = 1.0;
  e.dq = 2.0;
  c.add_element(e);
  const auto p = c.validate();
  ASSERT_FALSE(p.empty());
  EXPECT_NE(p[0].find("phase 3"), std::string::npos);
}

TEST(CircuitValidate, NegativeParameters) {
  Circuit c("bad", 1);
  c.add_latch("X", 1, -1.0, 2.0);
  EXPECT_FALSE(c.validate().empty());
}

TEST(CircuitValidate, DqLessThanSetupFlagged) {
  // The paper assumes Δ_DQ >= Δ_DC.
  Circuit c("bad", 1);
  c.add_latch("X", 1, 5.0, 2.0);
  const auto p = c.validate();
  ASSERT_FALSE(p.empty());
  EXPECT_NE(p[0].find("Δ_DQ >= Δ_DC"), std::string::npos);
}

TEST(CircuitValidate, MinDelayGreaterThanMax) {
  Circuit c("bad", 1);
  c.add_latch("X", 1, 1.0, 2.0);
  c.add_latch("Y", 1, 1.0, 2.0);
  c.add_path("X", "Y", 5.0, 9.0);
  EXPECT_FALSE(c.validate().empty());
}

TEST(CircuitValidate, ParallelPathsFlagged) {
  Circuit c("bad", 2);
  c.add_latch("X", 1, 1.0, 2.0);
  c.add_latch("Y", 2, 1.0, 2.0);
  c.add_path("X", "Y", 5.0);
  c.add_path("X", "Y", 7.0);
  const auto p = c.validate();
  ASSERT_FALSE(p.empty());
  EXPECT_NE(p[0].find("parallel"), std::string::npos);
}

TEST(CircuitValidate, ParallelPathMessagesKeepPathOrder) {
  // Each path's own problems, then its parallel-path message, in path order;
  // a non-finite path is neither flagged as parallel nor counted as a first.
  Circuit c("order", 1);
  c.add_latch("X", 1, 1.0, 2.0);
  c.add_latch("Y", 1, 1.0, 2.0);
  c.add_latch("Z", 1, 1.0, 2.0);
  c.add_path(1, 2, 3.0, 0.0, "yz");
  c.add_path(0, 1, std::numeric_limits<double>::quiet_NaN(), 0.0, "nan");
  c.add_path(0, 1, 5.0, 0.0, "xy");
  c.add_path(2, 0, 1.0, 0.0, "zx");
  c.add_path(0, 1, 7.0, 0.0, "xy2");
  c.add_path(1, 2, -1.0, 0.0, "neg");
  const std::vector<std::string> expected = {
      "path 'nan' has a non-finite delay",
      "parallel combinational paths between 'X' and 'Y' (merge them by taking max/min delays)",
      "path 'neg' has negative max delay",
      "path 'neg' has min delay greater than max delay",
      "parallel combinational paths between 'Y' and 'Z' (merge them by taking max/min delays)",
  };
  EXPECT_EQ(c.validate(), expected);
}

TEST(Circuit, AddPathsMatchesAddPathOneAtATime) {
  const int from[] = {0, 1, 2, 0, 2, 1, 0};
  const int to[] = {1, 2, 0, 2, 2, 0, 1};
  Circuit one("c", 2);
  Circuit batch("c", 2);
  for (Circuit* c : {&one, &batch}) {
    c->add_latch("A", 1, 1.0, 2.0);
    c->add_latch("B", 2, 1.0, 2.0);
    c->add_latch("C", 1, 1.0, 2.0);
  }
  std::vector<CombPath> rest;
  for (int p = 0; p < 7; ++p) {
    const double delay = 1.0 + p;
    one.add_path(from[p], to[p], delay, 0.5, "p" + std::to_string(p));
    if (p < 2) {
      batch.add_path(from[p], to[p], delay, 0.5, "p" + std::to_string(p));
    } else {
      rest.push_back(CombPath{from[p], to[p], delay, 0.5, "p" + std::to_string(p)});
    }
  }
  batch.add_paths(std::move(rest));
  batch.shrink_to_fit();
  ASSERT_EQ(batch.num_paths(), one.num_paths());
  for (int p = 0; p < one.num_paths(); ++p) {
    EXPECT_EQ(batch.path(p).from, one.path(p).from);
    EXPECT_EQ(batch.path(p).to, one.path(p).to);
    EXPECT_EQ(batch.path(p).delay, one.path(p).delay);
    EXPECT_EQ(batch.path(p).label, one.path(p).label);
  }
  for (int e = 0; e < one.num_elements(); ++e) {
    EXPECT_EQ(batch.fanin(e), one.fanin(e)) << e;
    EXPECT_EQ(batch.fanout(e), one.fanout(e)) << e;
  }
  EXPECT_EQ(batch.find_element("C"), std::optional<int>(2));
}

TEST(CircuitValidate, NonFiniteElementParameterFlagged) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    Circuit c("bad", 1);
    c.add_latch("X", 1, v, 2.0);
    const auto p = c.validate();
    ASSERT_FALSE(p.empty());
    EXPECT_NE(p[0].find("non-finite"), std::string::npos);
  }
}

TEST(CircuitValidate, NonFinitePathDelayFlagged) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    Circuit c("bad", 1);
    c.add_latch("X", 1, 1.0, 2.0);
    c.add_latch("Y", 1, 1.0, 2.0);
    c.add_path("X", "Y", v);
    const auto p = c.validate();
    ASSERT_FALSE(p.empty());
    EXPECT_NE(p[0].find("non-finite"), std::string::npos);
  }
}

TEST(CircuitValidate, NanDoesNotSlipPastOrderingChecks) {
  // NaN compares false against everything, so the sign/ordering checks alone
  // would silently accept it; the finiteness check must fire instead.
  Circuit c("bad", 1);
  c.add_latch("X", 1, 1.0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(c.validate().empty());
}

TEST(CircuitValidate, ElementDqMinAboveDq) {
  Circuit c("bad", 1);
  Element e;
  e.name = "X";
  e.phase = 1;
  e.setup = 1.0;
  e.dq = 2.0;
  e.dq_min = 3.0;
  c.add_element(e);
  EXPECT_FALSE(c.validate().empty());
}

TEST(Element, MinDqDefaultsToDq) {
  Element e;
  e.dq = 4.0;
  EXPECT_DOUBLE_EQ(e.min_dq(), 4.0);
  e.dq_min = 1.5;
  EXPECT_DOUBLE_EQ(e.min_dq(), 1.5);
}

TEST(Element, KindNames) {
  EXPECT_STREQ(to_string(ElementKind::kLatch), "latch");
  EXPECT_STREQ(to_string(ElementKind::kFlipFlop), "flipflop");
}

}  // namespace
}  // namespace mintc
