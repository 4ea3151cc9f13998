#include "parser/verilog.h"

#include <gtest/gtest.h>

#include <fstream>

#include "netlist/extract.h"
#include "opt/mlp.h"

namespace mintc::parser {
namespace {

constexpr const char* kAccumulator = R"(
// two-phase accumulator
module accumulator (clk1, clk2, din);
  wire in_q, acc_d, acc_q, out_d, out_q, x1, x2, x3, x4;

  latch #(.phase(1), .setup(0.3), .dq(0.5)) IN  (.d(din),   .q(in_q));
  latch #(.phase(2), .setup(0.3), .dq(0.5)) ACC (.d(acc_d), .q(acc_q));
  latch #(.phase(1), .setup(0.3), .dq(0.5)) OUT (.d(out_d), .q(out_q));

  xor g1 (x1, in_q, x4);
  and g2 (x2, in_q, x4);
  or  g3 (x3, x1, x2);
  buf g4 (acc_d, x3);
  not g5 (out_d, acc_q);
  buf g6 (x4, out_q);
endmodule
)";

TEST(Verilog, ParsesAccumulator) {
  const auto nl = parse_verilog(kAccumulator);
  ASSERT_TRUE(nl) << nl.error().to_string();
  EXPECT_EQ(nl->name(), "accumulator");
  EXPECT_EQ(nl->num_phases(), 2);
  EXPECT_EQ(nl->storages().size(), 3u);
  EXPECT_EQ(nl->gates().size(), 6u);
  EXPECT_TRUE(nl->validate().empty());
  EXPECT_EQ(nl->storages()[0].name, "IN");
  EXPECT_DOUBLE_EQ(nl->storages()[0].setup, 0.3);
}

TEST(Verilog, FlowsIntoTimingModel) {
  const auto nl = parse_verilog(kAccumulator);
  ASSERT_TRUE(nl);
  const auto circuit = netlist::extract_timing_model(*nl);
  ASSERT_TRUE(circuit) << circuit.error().to_string();
  EXPECT_EQ(circuit->num_elements(), 3);
  const auto r = opt::minimize_cycle_time(*circuit);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_GT(r->min_cycle, 0.0);
}

TEST(Verilog, TwoCellsWithOneNameDoNotExtract) {
  const auto nl = parse_verilog(
      "module m (a);\n"
      "  latch #(.phase(1), .setup(0.1), .dq(0.3)) L1 (.d(a), .q(b));\n"
      "  latch #(.phase(2), .setup(0.1), .dq(0.3)) L1 (.d(b), .q(a));\n"
      "endmodule\n");
  ASSERT_TRUE(nl) << nl.error().to_string();
  const auto circuit = netlist::extract_timing_model(*nl);
  ASSERT_FALSE(circuit);
  EXPECT_EQ(circuit.error().kind, ErrorKind::kInvalidCircuit);
  EXPECT_NE(circuit.error().message.find("'L1'"), std::string::npos)
      << circuit.error().message;
}

TEST(Verilog, DffAndExtraParams) {
  const auto nl = parse_verilog(
      "module m (a);\n"
      "  dff #(.phase(2), .setup(0.2), .cq(0.4), .hold(0.1)) F (.d(a), .q(b));\n"
      "  latch #(.phase(1), .setup(0.1), .dq(0.3), .dqmin(0.2)) L (.q(a), .d(b));\n"
      "endmodule\n");
  ASSERT_TRUE(nl) << nl.error().to_string();
  EXPECT_EQ(nl->storages()[0].kind, ElementKind::kFlipFlop);
  EXPECT_DOUBLE_EQ(nl->storages()[0].hold, 0.1);
  EXPECT_DOUBLE_EQ(nl->storages()[1].dq_min, 0.2);
  // Pin order independent: .q before .d accepted.
  EXPECT_EQ(nl->net_name(nl->storages()[1].q_net), "a");
}

TEST(Verilog, BlockCommentsAndImplicitNets) {
  const auto nl = parse_verilog(
      "module m (x); /* block\n comment */\n"
      "  latch #(.phase(1), .setup(1), .dq(2)) L (.d(n1), .q(n2));\n"
      "  buf b1 (n1, n2); // feedback\n"
      "endmodule\n");
  ASSERT_TRUE(nl) << nl.error().to_string();
  EXPECT_EQ(nl->num_nets(), 2);
}

TEST(Verilog, VariadicPrimitives) {
  const auto nl = parse_verilog(
      "module m (x);\n"
      "  latch #(.phase(1), .setup(1), .dq(2)) L (.d(o), .q(q));\n"
      "  nand g (o, q, a, b, c);\n"
      "endmodule\n");
  ASSERT_TRUE(nl) << nl.error().to_string();
  EXPECT_EQ(nl->gates()[0].inputs.size(), 4u);
}

TEST(Verilog, ErrorsCarryLines) {
  const auto nl = parse_verilog("module m (x);\n  gadget g (a, b);\nendmodule\n");
  ASSERT_FALSE(nl);
  EXPECT_NE(nl.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(nl.error().message.find("gadget"), std::string::npos);
}

TEST(Verilog, RejectsMalformedInputs) {
  EXPECT_FALSE(parse_verilog(""));                                     // no module
  EXPECT_FALSE(parse_verilog("module m (x);\n"));                      // no endmodule
  EXPECT_FALSE(parse_verilog("module m (x); /* unterminated"));        // comment
  EXPECT_FALSE(parse_verilog(
      "module m (x);\n latch #(.phase(1)) L (.d(a));\nendmodule\n"));  // missing .q
  EXPECT_FALSE(parse_verilog(
      "module m (x);\n latch #(.bogus(1), .setup(1), .dq(2)) L (.d(a), .q(b));\n"
      "endmodule\n"));                                                 // unknown param
  EXPECT_FALSE(parse_verilog(
      "module m (x);\n buf g (only_output);\nendmodule\n"));           // arity
}

TEST(Verilog, SkewParameterParsedAndExtracted) {
  const auto nl = parse_verilog(
      "module m (clk1);\n"
      "  wire d1, q1, d2, q2;\n"
      "  latch #(.phase(1), .setup(0.3), .dq(0.5), .skew(0.2)) A (.d(d1), .q(q1));\n"
      "  dff #(.phase(1), .setup(0.3), .cq(0.5), .skew(0.1)) B (.d(d2), .q(q2));\n"
      "  buf g1 (d2, q1);\n"
      "  buf g2 (d1, q2);\n"
      "endmodule\n");
  ASSERT_TRUE(nl) << nl.error().to_string();
  EXPECT_DOUBLE_EQ(nl->storages()[0].skew, 0.2);
  EXPECT_DOUBLE_EQ(nl->storages()[1].skew, 0.1);
  const auto c = netlist::extract_timing_model(*nl);
  ASSERT_TRUE(c) << c.error().to_string();
  EXPECT_DOUBLE_EQ(c->element(0).skew, 0.2);
  EXPECT_DOUBLE_EQ(c->element(1).skew, 0.1);
}

TEST(Verilog, NegativeSkewRejectedWithLineNumber) {
  const auto nl = parse_verilog(
      "module m (clk1);\n"
      "  wire d1, q1;\n"
      "  latch #(.phase(1), .setup(0.3), .dq(0.5), .skew(-0.2)) A (.d(d1), .q(q1));\n"
      "endmodule\n");
  ASSERT_FALSE(nl);
  EXPECT_NE(nl.error().message.find("skew"), std::string::npos);
  EXPECT_NE(nl.error().message.find("3"), std::string::npos);
}

TEST(Verilog, LoadFromFile) {
  const std::string path = testing::TempDir() + "/acc.v";
  {
    std::ofstream out(path);
    out << kAccumulator;
  }
  const auto nl = load_verilog(path);
  ASSERT_TRUE(nl) << nl.error().to_string();
  EXPECT_EQ(nl->storages().size(), 3u);
  EXPECT_FALSE(load_verilog("/nonexistent/x.v"));
}

}  // namespace
}  // namespace mintc::parser
