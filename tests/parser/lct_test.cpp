#include "parser/lct.h"

#include <gtest/gtest.h>

#include "circuits/example1.h"
#include "circuits/gaas.h"
#include "opt/mlp.h"

namespace mintc::parser {
namespace {

constexpr const char* kExample1 = R"(
# Example 1 from the paper (Fig. 5)
circuit example1
phases 2
latch L1 phase=1 setup=10 dq=10
latch L2 phase=2 setup=10 dq=10
latch L3 phase=1 setup=10 dq=10
latch L4 phase=2 setup=10 dq=10
path L1 L2 delay=20 label=La
path L2 L3 delay=20 label=Lb
path L3 L4 delay=60 label=Lc
path L4 L1 delay=80 label=Ld
)";

TEST(LctParser, ParsesExample1) {
  const auto c = parse_circuit(kExample1);
  ASSERT_TRUE(c) << c.error().to_string();
  EXPECT_EQ(c->name(), "example1");
  EXPECT_EQ(c->num_phases(), 2);
  EXPECT_EQ(c->num_elements(), 4);
  EXPECT_EQ(c->num_paths(), 4);
  EXPECT_EQ(c->path(3).label, "Ld");
  EXPECT_DOUBLE_EQ(c->path(2).delay, 60.0);
  // And it optimizes to the published value.
  const auto r = opt::minimize_cycle_time(*c);
  ASSERT_TRUE(r);
  EXPECT_NEAR(r->min_cycle, 110.0, 1e-6);
}

TEST(LctParser, FlipFlopAndOptionalAttrs) {
  const auto c = parse_circuit(
      "circuit t\nphases 2\n"
      "flipflop F phase=1 setup=0.2 cq=0.3 hold=0.1\n"
      "latch L phase=2 setup=1 dq=2 dqmin=1.5 hold=0.4\n"
      "path F L delay=5 min=2 label=blk\n");
  ASSERT_TRUE(c) << c.error().to_string();
  EXPECT_EQ(c->element(0).kind, ElementKind::kFlipFlop);
  EXPECT_DOUBLE_EQ(c->element(0).dq, 0.3);
  EXPECT_DOUBLE_EQ(c->element(0).hold, 0.1);
  EXPECT_DOUBLE_EQ(c->element(1).dq_min, 1.5);
  EXPECT_DOUBLE_EQ(c->path(0).min_delay, 2.0);
}

TEST(LctParser, ErrorsCarryLineNumbers) {
  const auto c = parse_circuit("circuit t\nphases 2\nlatch L phase=9 setup=1 dq=2\n");
  ASSERT_FALSE(c);
  EXPECT_NE(c.error().message.find("line 3"), std::string::npos);
}

TEST(LctParser, UnknownKeywordRejected) {
  const auto c = parse_circuit("circuit t\nphases 1\nwidget W\n");
  ASSERT_FALSE(c);
  EXPECT_NE(c.error().message.find("unknown keyword"), std::string::npos);
}

TEST(LctParser, UnknownAttributeRejected) {
  const auto c = parse_circuit("circuit t\nphases 1\nlatch L phase=1 setup=1 dq=2 zap=3\n");
  ASSERT_FALSE(c);
  EXPECT_NE(c.error().message.find("unknown attribute"), std::string::npos);
}

TEST(LctParser, PathBeforeElementsRejected) {
  const auto c = parse_circuit("circuit t\nphases 1\npath A B delay=1\n");
  EXPECT_FALSE(c);
}

TEST(LctParser, UnknownEndpointRejected) {
  const auto c =
      parse_circuit("circuit t\nphases 1\nlatch L phase=1 setup=1 dq=2\npath L M delay=1\n");
  ASSERT_FALSE(c);
  EXPECT_NE(c.error().message.find("unknown element 'M'"), std::string::npos);
}

TEST(LctParser, DuplicateElementRejected) {
  const auto c = parse_circuit(
      "circuit t\nphases 1\nlatch L phase=1 setup=1 dq=2\nlatch L phase=1 setup=1 dq=2\n");
  ASSERT_FALSE(c);
  EXPECT_NE(c.error().message.find("duplicate"), std::string::npos);
}

TEST(LctParser, MissingPhasesRejected) {
  EXPECT_FALSE(parse_circuit("circuit t\n"));
  EXPECT_FALSE(parse_circuit(""));
}

TEST(LctParser, PathRequiresDelay) {
  const auto c = parse_circuit(
      "circuit t\nphases 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n"
      "path A B label=x\n");
  ASSERT_FALSE(c);
  EXPECT_NE(c.error().message.find("delay"), std::string::npos);
}

TEST(LctParser, CircuitAfterElementsRejected) {
  const auto c =
      parse_circuit("phases 1\nlatch A phase=1 setup=1 dq=2\ncircuit late\n");
  EXPECT_FALSE(c);
}

TEST(LctWriter, RoundTripsExample1) {
  const Circuit original = circuits::example1(80.0);
  const std::string text = write_circuit(original);
  const auto back = parse_circuit(text);
  ASSERT_TRUE(back) << back.error().to_string();
  EXPECT_EQ(back->name(), original.name());
  EXPECT_EQ(back->num_elements(), original.num_elements());
  EXPECT_EQ(back->num_paths(), original.num_paths());
  for (int i = 0; i < original.num_paths(); ++i) {
    EXPECT_DOUBLE_EQ(back->path(i).delay, original.path(i).delay);
    EXPECT_EQ(back->path(i).label, original.path(i).label);
  }
}

TEST(LctWriter, KeepsADelayLongerThanSixtyThreeDigits) {
  // 1e70 prints as 71 digits before the point; every one must reach the
  // reader, or the path comes back shorter by a power of ten per digit lost.
  Circuit original = circuits::example1(80.0);
  original.set_path_delay(0, 1e70);
  const auto back = parse_circuit(write_circuit(original));
  ASSERT_TRUE(back) << back.error().to_string();
  EXPECT_EQ(back->path(0).delay, 1e70);
  EXPECT_EQ(write_circuit(*back), write_circuit(original));
}

TEST(LctWriter, RoundTripsGaasWithFlipFlops) {
  const Circuit original = circuits::gaas_datapath();
  const auto back = parse_circuit(write_circuit(original));
  ASSERT_TRUE(back) << back.error().to_string();
  EXPECT_EQ(back->num_elements(), original.num_elements());
  EXPECT_EQ(back->num_paths(), original.num_paths());
  for (int i = 0; i < original.num_elements(); ++i) {
    EXPECT_EQ(back->element(i).kind, original.element(i).kind);
    EXPECT_NEAR(back->element(i).setup, original.element(i).setup, 1e-6);
  }
  // Same optimum after the round trip.
  const auto a = opt::minimize_cycle_time(original);
  const auto b = opt::minimize_cycle_time(*back);
  ASSERT_TRUE(a && b);
  EXPECT_NEAR(a->min_cycle, b->min_cycle, 1e-4);
}

TEST(LctParser, MinExceedingDelayRejected) {
  const auto c = parse_circuit(
      "circuit t\nphases 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n"
      "path A B delay=5 min=9\n");
  ASSERT_FALSE(c);
  EXPECT_NE(c.error().message.find("line 5"), std::string::npos);
  EXPECT_NE(c.error().message.find("exceeds delay"), std::string::npos);
}

TEST(LctParser, QuotedLabelWithSpacesHashEquals) {
  const auto c = parse_circuit(
      "circuit t\nphases 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n"
      "path A B delay=5 label=\"ALU #2 = adder\" # trailing comment\n");
  ASSERT_TRUE(c) << c.error().to_string();
  EXPECT_EQ(c->path(0).label, "ALU #2 = adder");
}

TEST(LctParser, QuotedLabelWithEscapes) {
  const auto c = parse_circuit(
      "circuit t\nphases 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n"
      "path A B delay=5 label=\"say \\\"hi\\\" \\\\ bye\"\n");
  ASSERT_TRUE(c) << c.error().to_string();
  EXPECT_EQ(c->path(0).label, "say \"hi\" \\ bye");
}

TEST(LctParser, UnterminatedQuoteRejected) {
  const auto c = parse_circuit(
      "circuit t\nphases 1\nlatch A phase=1 setup=1 dq=2\nlatch B phase=1 setup=1 dq=2\n"
      "path A B delay=5 label=\"oops\n");
  ASSERT_FALSE(c);
  EXPECT_NE(c.error().message.find("unterminated quote"), std::string::npos);
}

TEST(LctWriter, RoundTripsAwkwardLabels) {
  Circuit original("awkward", 2);
  original.add_latch("A", 1, 1.0, 2.0);
  original.add_latch("B", 2, 1.0, 2.0);
  original.add_path("A", "B", 10.0, 0.0, "two words");
  original.add_path("B", "A", 12.0, 0.0, "hash # inside");
  original.add_path("A", "A", 3.0, 0.0, "k=v");
  original.add_path("B", "B", 4.0, 0.0, "quote \" and \\ slash");
  const std::string text = write_circuit(original);
  const auto back = parse_circuit(text);
  ASSERT_TRUE(back) << back.error().to_string();
  ASSERT_EQ(back->num_paths(), original.num_paths());
  for (int i = 0; i < original.num_paths(); ++i) {
    EXPECT_EQ(back->path(i).label, original.path(i).label) << i;
    EXPECT_DOUBLE_EQ(back->path(i).delay, original.path(i).delay) << i;
  }
}

TEST(LctFiles, SaveAndLoad) {
  const std::string path = testing::TempDir() + "/roundtrip.lct";
  const Circuit original = circuits::example1(100.0);
  ASSERT_TRUE(save_circuit(original, path));
  const auto back = load_circuit(path);
  ASSERT_TRUE(back) << back.error().to_string();
  EXPECT_EQ(back->num_paths(), 4);
}

TEST(LctFiles, MissingFileIsIoError) {
  const auto c = load_circuit("/nonexistent/nope.lct");
  ASSERT_FALSE(c);
  EXPECT_EQ(c.error().kind, ErrorKind::kIo);
}

TEST(LctParser, SkewAttributeParsed) {
  const auto c = parse_circuit(
      "circuit t\nphases 2\n"
      "latch A phase=1 setup=1 dq=2 skew=0.5\n"
      "flipflop B phase=2 setup=1 cq=2 skew=0.25\n");
  ASSERT_TRUE(c) << c.error().to_string();
  EXPECT_DOUBLE_EQ(c->element(0).skew, 0.5);
  EXPECT_DOUBLE_EQ(c->element(1).skew, 0.25);  // flip-flops carry σ too
}

TEST(LctParser, NegativeSkewRejectedWithLineNumber) {
  const auto c = parse_circuit(
      "circuit t\nphases 1\nlatch A phase=1 setup=1 dq=2 skew=-0.5\n");
  ASSERT_FALSE(c);
  EXPECT_NE(c.error().message.find("line 3"), std::string::npos);
  EXPECT_NE(c.error().message.find("skew"), std::string::npos);
}

TEST(LctParser, NonFiniteSkewRejected) {
  EXPECT_FALSE(parse_circuit("circuit t\nphases 1\nlatch A phase=1 setup=1 dq=2 skew=inf\n"));
  EXPECT_FALSE(parse_circuit("circuit t\nphases 1\nlatch A phase=1 setup=1 dq=2 skew=nan\n"));
}

TEST(LctWriter, SkewRoundTripsAndZeroIsOmitted) {
  Circuit original = circuits::example1(80.0);
  original.element(0).skew = 1.25;
  original.element(2).skew = 0.5;
  const std::string text = write_circuit(original);
  EXPECT_NE(text.find("skew="), std::string::npos);
  const auto back = parse_circuit(text);
  ASSERT_TRUE(back) << back.error().to_string();
  for (int i = 0; i < original.num_elements(); ++i) {
    EXPECT_DOUBLE_EQ(back->element(i).skew, original.element(i).skew) << i;
  }
  // All-zero skews stay invisible: the seed corpus round-trips byte-stable.
  EXPECT_EQ(write_circuit(circuits::example1(80.0)).find("skew="), std::string::npos);
}

}  // namespace
}  // namespace mintc::parser
