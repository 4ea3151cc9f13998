#include "netlist/extract.h"

#include <gtest/gtest.h>

#include "opt/mlp.h"

namespace mintc::netlist {
namespace {

// Two latches with a 2-gate block between them:
//   L1.q -> inv -> nand(. , L1.q) -> L2.d,   L2.q -> buf -> L1.d.
Netlist small_netlist() {
  Netlist n("small", 2);
  const int d1 = n.add_net("d1");
  const int q1 = n.add_net("q1");
  const int d2 = n.add_net("d2");
  const int q2 = n.add_net("q2");
  const int w1 = n.add_net("w1");
  n.add_latch("L1", 1, d1, q1, 0.5, 1.0);
  n.add_latch("L2", 2, d2, q2, 0.5, 1.0);
  n.add_gate("i1", GateType::kInv, {q1}, w1);
  n.add_gate("n1", GateType::kNand, {w1, q1}, d2);
  n.add_gate("b1", GateType::kBuf, {q2}, d1);
  return n;
}

TEST(Extract, DuplicateStorageNameIsATypedError) {
  Netlist n("dup", 2);
  const int d1 = n.add_net("d1");
  const int q1 = n.add_net("q1");
  const int d2 = n.add_net("d2");
  const int q2 = n.add_net("q2");
  n.add_latch("L1", 1, d1, q1, 0.5, 1.0);
  n.add_latch("L1", 2, d2, q2, 0.5, 1.0);
  n.add_gate("b1", GateType::kBuf, {q1}, d2);
  n.add_gate("b2", GateType::kBuf, {q2}, d1);
  const auto c = extract_timing_model(n);
  ASSERT_FALSE(c);
  EXPECT_EQ(c.error().kind, ErrorKind::kInvalidCircuit);
  EXPECT_NE(c.error().message.find("two storage cells named 'L1'"), std::string::npos)
      << c.error().message;
}

TEST(Extract, ElementsCarryOver) {
  const auto c = extract_timing_model(small_netlist());
  ASSERT_TRUE(c) << c.error().to_string();
  EXPECT_EQ(c->num_elements(), 2);
  EXPECT_EQ(c->element(0).name, "L1");
  EXPECT_EQ(c->element(0).phase, 1);
  EXPECT_DOUBLE_EQ(c->element(0).setup, 0.5);
  EXPECT_DOUBLE_EQ(c->element(0).dq, 1.0);
}

TEST(Extract, LongestAndShortestPathDelays) {
  const DelayModel m;
  const auto c = extract_timing_model(small_netlist(), m);
  ASSERT_TRUE(c);
  // L1 -> L2: two routes; the long one goes through the inverter.
  // inv drives w1 (fanout 1); nand drives d2 (fanout 1: the latch D pin).
  const double inv = m.gate_delay(GateType::kInv, 1);
  const double nand = m.gate_delay(GateType::kNand, 1);
  const CombPath* p12 = nullptr;
  const CombPath* p21 = nullptr;
  for (const CombPath& p : c->paths()) {
    if (c->element(p.from).name == "L1" && c->element(p.to).name == "L2") p12 = &p;
    if (c->element(p.from).name == "L2" && c->element(p.to).name == "L1") p21 = &p;
  }
  ASSERT_NE(p12, nullptr);
  ASSERT_NE(p21, nullptr);
  EXPECT_NEAR(p12->delay, inv + nand, 1e-12);
  // Short route: straight into the nand, scaled by min_scale.
  EXPECT_NEAR(p12->min_delay, nand * m.min_scale, 1e-12);
  EXPECT_NEAR(p21->delay, m.gate_delay(GateType::kBuf, 1), 1e-12);
}

TEST(Extract, DirectWireIsZeroDelayPath) {
  Netlist n("wire", 2);
  const int q1 = n.add_net("q1");
  const int d2 = n.add_net("d2");
  const int x = n.add_net("x");
  n.add_latch("A", 1, x, q1, 0.5, 1.0);
  n.add_latch("B", 2, q1, d2, 0.5, 1.0);  // B.d IS A.q
  n.add_gate("g", GateType::kBuf, {d2}, x);
  const auto c = extract_timing_model(n);
  ASSERT_TRUE(c);
  bool found = false;
  for (const CombPath& p : c->paths()) {
    if (c->element(p.from).name == "A" && c->element(p.to).name == "B") {
      EXPECT_DOUBLE_EQ(p.delay, 0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Extract, CombinationalFeedbackRejected) {
  Netlist n("cyc", 1);
  const int a = n.add_net("a");
  const int b = n.add_net("b");
  const int q = n.add_net("q");
  const int d = n.add_net("d");
  n.add_latch("L", 1, d, q, 0.5, 1.0);
  n.add_gate("g1", GateType::kInv, {a}, b);
  n.add_gate("g2", GateType::kInv, {b}, a);  // gate loop, no storage break
  n.add_gate("g3", GateType::kNand, {q, a}, d);
  const auto c = extract_timing_model(n);
  ASSERT_FALSE(c);
  EXPECT_EQ(c.error().kind, ErrorKind::kInvalidCircuit);
  EXPECT_NE(c.error().message.find("combinational feedback"), std::string::npos);
}

TEST(Extract, InvalidNetlistRejected) {
  Netlist n("bad", 1);
  n.add_net("only");
  const auto c = extract_timing_model(n);
  ASSERT_FALSE(c);
  EXPECT_EQ(c.error().kind, ErrorKind::kInvalidCircuit);
}

TEST(Extract, SequentialFeedbackThroughStorageIsFine) {
  // The small netlist IS a sequential loop (L1 -> L2 -> L1); extraction must
  // accept it and the resulting circuit must optimize.
  const auto c = extract_timing_model(small_netlist());
  ASSERT_TRUE(c);
  const auto r = opt::minimize_cycle_time(*c);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_GT(r->min_cycle, 0.0);
}

TEST(Extract, UnconnectedStoragePairsGetNoPath) {
  Netlist n("sparse", 2);
  const int d1 = n.add_net("d1");
  const int q1 = n.add_net("q1");
  const int d2 = n.add_net("d2");
  const int q2 = n.add_net("q2");
  n.add_latch("A", 1, d1, q1, 0.5, 1.0);
  n.add_latch("B", 2, d2, q2, 0.5, 1.0);
  n.add_gate("g", GateType::kBuf, {q1}, d2);
  // q2 drives nothing; d1 undriven (primary input).
  const auto c = extract_timing_model(n);
  ASSERT_TRUE(c);
  EXPECT_EQ(c->num_paths(), 1);  // only A -> B
}

}  // namespace
}  // namespace mintc::netlist
