// Per-element clock skew as a model dimension: validation, the TimingView's
// fused capture margins (setup_margin = setup + skew, hold_margin = hold +
// skew), and the debug-build bounds on set_element_skew. Death tests only
// compile where assert() is live.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "circuits/example2.h"
#include "model/circuit.h"
#include "model/timing_view.h"

namespace mintc {
namespace {

Circuit two_latch_circuit() {
  Circuit c("skewed", 2);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 2, 1.5, 3.0);
  c.add_path("A", "B", 10.0);
  c.add_path("B", "A", 12.0);
  return c;
}

TEST(Skew, DefaultsToZeroAndValidates) {
  const Circuit c = two_latch_circuit();
  for (int i = 0; i < c.num_elements(); ++i) EXPECT_EQ(c.element(i).skew, 0.0);
  EXPECT_TRUE(c.validate().empty());
}

TEST(Skew, NegativeSkewFailsValidation) {
  Circuit c = two_latch_circuit();
  c.element(0).skew = -0.5;
  const std::vector<std::string> problems = c.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("negative clock skew"), std::string::npos);
  EXPECT_NE(problems[0].find("'A'"), std::string::npos);
}

TEST(Skew, NonFiniteSkewFailsValidation) {
  Circuit c = two_latch_circuit();
  c.element(1).skew = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(c.validate().empty());
  c.element(1).skew = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(c.validate().empty());
}

TEST(Skew, ViewFusesCaptureMargins) {
  Circuit c = two_latch_circuit();
  c.element(0).skew = 0.25;
  c.element(0).hold = 0.5;
  const TimingView v(c);
  EXPECT_EQ(v.skew(0), 0.25);
  EXPECT_EQ(v.skew(1), 0.0);
  EXPECT_EQ(v.setup_margin(0), 1.0 + 0.25);
  EXPECT_EQ(v.hold_margin(0), 0.5 + 0.25);
  // Zero skew leaves the margins bitwise equal to the raw requirements.
  EXPECT_EQ(v.setup_margin(1), v.setup(1));
  EXPECT_EQ(v.hold_margin(1), v.hold(1));
}

TEST(Skew, SetElementSkewRefreshesMarginsAndMaxSkew) {
  TimingView v(two_latch_circuit());
  v.set_element_skew(0, 2.0);
  v.set_element_skew(1, 3.0);
  EXPECT_EQ(v.setup_margin(1), 1.5 + 3.0);
  v.set_element_skew(1, 0.5);
  EXPECT_EQ(v.setup_margin(1), 1.5 + 0.5);
  v.set_element_skew(0, 0.0);
  EXPECT_EQ(v.setup_margin(0), v.setup(0));
}

TEST(Skew, SetupAndHoldEditsPreserveTheSkewTerm) {
  TimingView v(two_latch_circuit());
  v.set_element_skew(0, 0.75);
  v.set_element_setup(0, 4.0);
  v.set_element_hold(0, 2.0);
  EXPECT_EQ(v.setup_margin(0), 4.0 + 0.75);
  EXPECT_EQ(v.hold_margin(0), 2.0 + 0.75);
}

TEST(Skew, SkewEditIsSlackOnly) {
  // A skew edit must not disturb the per-edge constants the warm-start
  // precondition of the fixpoint depends on (max_nondecreasing semantics
  // cover delays, not capture margins).
  TimingView v(two_latch_circuit());
  const double before = v.edge_max_const(v.fanin_begin(1));
  v.set_element_skew(1, 1.25);
  EXPECT_EQ(v.edge_max_const(v.fanin_begin(1)), before);
  EXPECT_TRUE(v.dirty_edges().empty());
  EXPECT_TRUE(v.max_nondecreasing());
}

TEST(Skew, ViewRoundTripsPaperCircuitWithSkews) {
  Circuit c = circuits::example2();
  for (int i = 0; i < c.num_elements(); ++i) {
    c.element(i).skew = 0.1 * static_cast<double>(i + 1);
  }
  const TimingView v(c);
  for (int i = 0; i < c.num_elements(); ++i) {
    EXPECT_EQ(v.skew(i), c.element(i).skew);
    EXPECT_EQ(v.setup_margin(i), c.element(i).setup + c.element(i).skew);
    EXPECT_EQ(v.hold_margin(i), c.element(i).hold + c.element(i).skew);
  }
}

#ifndef NDEBUG

using SkewDeathTest = ::testing::Test;

TEST(SkewDeathTest, NegativeSkewEditIsCaught) {
  TimingView v(two_latch_circuit());
  EXPECT_DEATH(v.set_element_skew(0, -1.0), "finite and nonnegative");
}

TEST(SkewDeathTest, NonFiniteSkewEditIsCaught) {
  TimingView v(two_latch_circuit());
  EXPECT_DEATH(v.set_element_skew(0, std::numeric_limits<double>::infinity()),
               "finite and nonnegative");
  EXPECT_DEATH(v.set_element_skew(0, std::numeric_limits<double>::quiet_NaN()),
               "finite and nonnegative");
}

TEST(SkewDeathTest, SkewedCircuitConstructionAssertsOnNegative) {
  Circuit c = two_latch_circuit();
  c.element(0).skew = -0.1;
  EXPECT_DEATH(TimingView{c}, "finite and nonnegative");
}

#endif  // NDEBUG

}  // namespace
}  // namespace mintc
