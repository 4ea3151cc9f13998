#include "opt/constraints.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "check/fuzzer.h"
#include "circuits/appendix_fig1.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"

namespace mintc::opt {
namespace {

TEST(Constraints, Example1RowInventory) {
  // Example 1 (Section V): k=2, l=4, 4 paths. The paper lists:
  //   periodicity (4), ordering (1), nonoverlap (2), setup (4),
  //   propagation (4) -> 15 rows; nonnegativity via bounds (2k+1+l = 9).
  const GeneratedLp g = generate_lp(circuits::example1(80.0));
  EXPECT_EQ(g.counts.c1, 4);
  EXPECT_EQ(g.counts.c2, 1);
  EXPECT_EQ(g.counts.c3, 2);
  EXPECT_EQ(g.counts.l1, 4);
  EXPECT_EQ(g.counts.l2r, 4);
  EXPECT_EQ(g.counts.rows(), 15);
  EXPECT_EQ(g.counts.bounds, 9);
  EXPECT_EQ(g.model.num_rows(), 15);
  EXPECT_EQ(g.model.num_variables(), 9);  // Tc, s1, s2, T1, T2, D1..D4
}

TEST(Constraints, RowCountBoundFromPaper) {
  // Section IV: "the number of constraints is bounded from above by
  // 4k + (F+1)l". Our row set stays within it (including bounds).
  const Circuit c = circuits::example1(80.0);
  const GeneratedLp g = generate_lp(c);
  const int k = c.num_phases();
  const int l = c.num_elements();
  const int f = c.max_fanin();
  // Example 1 has only 2 nonoverlap pairs, so the paper's bound holds as
  // stated here (see paper_results_test for the general k^2 version).
  EXPECT_LE(g.counts.rows() + l, 4 * k + (f + 1) * l + (2 * k + 1));
}

TEST(Constraints, Example1NonoverlapRowsMatchPaper) {
  // "s1 >= s2 + T2 - Tc and s2 >= s1 + T1".
  const GeneratedLp g = generate_lp(circuits::example1(80.0));
  bool found_12 = false;
  bool found_21 = false;
  for (const lp::Row& row : g.model.rows()) {
    if (row.name == "C3:phi1/phi2") found_12 = true;
    if (row.name == "C3:phi2/phi1") found_21 = true;
  }
  EXPECT_TRUE(found_12);
  EXPECT_TRUE(found_21);
}

TEST(Constraints, L2RRowEncodesShiftOperator) {
  // For path L4(phi2) -> L1(phi1): D1 >= D4 + 10 + Δ41 + s2 - s1 - Tc,
  // i.e. row D1 - D4 - s2 + s1 + Tc >= 10 + Δ41.
  const GeneratedLp g = generate_lp(circuits::example1(80.0));
  const lp::Row* target = nullptr;
  for (const lp::Row& row : g.model.rows()) {
    if (row.name == "L2R:L4->L1") target = &row;
  }
  ASSERT_NE(target, nullptr);
  EXPECT_DOUBLE_EQ(target->rhs, 90.0);  // Δ_DQ4 + Δ41 = 10 + 80
  // Check the coefficient on Tc is +1 (C_21 = 1).
  double tc_coeff = 0.0;
  for (const lp::LinearTerm& t : target->terms) {
    if (t.var == g.vars.tc) tc_coeff = t.coeff;
  }
  EXPECT_DOUBLE_EQ(tc_coeff, 1.0);
}

TEST(Constraints, SetupRowEncodesEq16) {
  // D_i + Δ_DCi <= T_pi  ->  D_i - T_pi <= -Δ_DCi.
  const GeneratedLp g = generate_lp(circuits::example1(80.0));
  const lp::Row* target = nullptr;
  for (const lp::Row& row : g.model.rows()) {
    if (row.name == "L1:setup(L1)") target = &row;
  }
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(target->sense, lp::Sense::kLe);
  EXPECT_DOUBLE_EQ(target->rhs, -10.0);
}

TEST(Constraints, DisableNonoverlapDropsC3) {
  GeneratorOptions opt;
  opt.enforce_nonoverlap = false;
  const GeneratedLp g = generate_lp(circuits::example1(80.0), opt);
  EXPECT_EQ(g.counts.c3, 0);
}

TEST(Constraints, MinPhaseWidthExtension) {
  GeneratorOptions opt;
  opt.min_phase_width = 5.0;
  const GeneratedLp g = generate_lp(circuits::example1(80.0), opt);
  EXPECT_EQ(g.counts.ext, 2);  // one per phase
}

TEST(Constraints, TcUpperBoundExtension) {
  GeneratorOptions opt;
  opt.tc_upper_bound = 500.0;
  const GeneratedLp g = generate_lp(circuits::example1(80.0), opt);
  EXPECT_EQ(g.counts.ext, 1);
}

TEST(Constraints, ArrivalBasedSetupUsesFaninRows) {
  GeneratorOptions opt;
  opt.arrival_based_setup = true;
  const GeneratedLp g = generate_lp(circuits::example1(80.0), opt);
  // Each latch has exactly one fanin in example 1 -> still 4 setup rows,
  // but named L1A and carrying source terms.
  EXPECT_EQ(g.counts.l1, 4);
  bool found = false;
  for (const lp::Row& row : g.model.rows()) {
    found |= row.name.find("L1A:setup") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Constraints, HoldRowsPerFaninWhenEnabled) {
  Circuit c("h", 2);
  c.add_latch("A", 1, 1.0, 2.0);
  Element b;
  b.name = "B";
  b.phase = 2;
  b.setup = 1.0;
  b.dq = 2.0;
  b.hold = 0.5;
  c.add_element(b);
  c.add_path("A", "B", 10.0, 3.0);
  c.add_path("B", "A", 10.0, 3.0);

  GeneratorOptions opt;
  opt.hold_constraints = true;
  const GeneratedLp g = generate_lp(c, opt);
  // One row per fanin path of every latch: even hold = 0 elements get the
  // transparency-race guard (next token must not reach an open latch).
  EXPECT_EQ(g.counts.hold, 2);
  // Off by default.
  EXPECT_EQ(generate_lp(c).counts.hold, 0);
}

TEST(Constraints, FlipFlopRows) {
  Circuit c("ff", 2);
  c.add_latch("L", 1, 1.0, 2.0);
  c.add_flipflop("F", 2, 1.0, 2.0);
  c.add_path("L", "F", 10.0);
  c.add_path("F", "L", 10.0);
  const GeneratedLp g = generate_lp(c);
  EXPECT_EQ(g.counts.ff_pin, 1);
  EXPECT_EQ(g.counts.ff_setup, 1);
  EXPECT_EQ(g.counts.l1, 1);   // just the latch
  EXPECT_EQ(g.counts.l2r, 1);  // only the path INTO the latch
  EXPECT_EQ(g.counts.c3, 0);   // FF endpoints exempt
}

TEST(Constraints, GaasHits91Constraints) {
  // Section V: "The number of constraints for this example was 91."
  const GeneratedLp g = generate_lp(circuits::gaas_datapath());
  EXPECT_EQ(g.counts.rows(), 91);
  EXPECT_EQ(g.model.num_rows(), 91);
}

// The rows of a generated LP, per class, read back from their names.
ConstraintCounts counts_by_row_name(const GeneratedLp& g) {
  ConstraintCounts n;
  for (const lp::Row& row : g.model.rows()) {
    const std::string_view name = row.name;
    const std::string_view cls = name.substr(0, name.find(':'));
    if (cls == "C1") ++n.c1;
    else if (cls == "C2") ++n.c2;
    else if (cls == "C3") ++n.c3;
    else if (cls == "L1" || cls == "L1A") ++n.l1;
    else if (cls == "L2R") ++n.l2r;
    else if (name.rfind("FF:pin(", 0) == 0) ++n.ff_pin;
    else if (name.rfind("FF:setup(", 0) == 0) ++n.ff_setup;
    else if (cls == "HOLD") ++n.hold;
    else if (cls == "EXT") ++n.ext;
    else ADD_FAILURE() << "unclassified row " << row.name;
  }
  n.bounds = g.model.num_variables();
  return n;
}

TEST(Constraints, CountsMatchGeneratedRowsUnderEverySetting) {
  std::vector<Circuit> circuits = {circuits::example1(80.0), circuits::example2(),
                                   circuits::gaas_datapath(), circuits::appendix_fig1()};
  for (uint64_t seed = 1; seed <= 2000; ++seed) circuits.push_back(check::fuzz_circuit(seed));
  for (const Circuit& c : circuits) {
    // Every combination of the settings that add or remove rows; the skew
    // and separation margins only move right-hand sides.
    for (int bits = 0; bits < 32; ++bits) {
      GeneratorOptions o;
      o.enforce_nonoverlap = (bits & 1) != 0;
      o.arrival_based_setup = (bits & 2) != 0;
      o.hold_constraints = (bits & 4) != 0;
      o.min_phase_width = (bits & 8) != 0 ? 1.0 : 0.0;
      o.tc_upper_bound = (bits & 16) != 0 ? 500.0 : -1.0;
      const GeneratedLp g = generate_lp(c, o);
      const ConstraintCounts want = counts_by_row_name(g);
      const ConstraintCounts got = count_constraints(c, o);
      const auto where = [&] { return c.name() + " settings " + std::to_string(bits); };
      ASSERT_EQ(got.rows(), g.model.num_rows()) << where();
      ASSERT_EQ(got.bounds, want.bounds) << where();
      ASSERT_EQ(got.c1, want.c1) << where();
      ASSERT_EQ(got.c2, want.c2) << where();
      ASSERT_EQ(got.c3, want.c3) << where();
      ASSERT_EQ(got.l1, want.l1) << where();
      ASSERT_EQ(got.l2r, want.l2r) << where();
      ASSERT_EQ(got.ff_pin, want.ff_pin) << where();
      ASSERT_EQ(got.ff_setup, want.ff_setup) << where();
      ASSERT_EQ(got.hold, want.hold) << where();
      ASSERT_EQ(got.ext, want.ext) << where();
    }
  }
  EXPECT_EQ(count_constraints(circuits::gaas_datapath()).rows(), 91);
}

TEST(Constraints, ScheduleExtraction) {
  const GeneratedLp g = generate_lp(circuits::example1(80.0));
  std::vector<double> x(static_cast<size_t>(g.model.num_variables()), 0.0);
  x[static_cast<size_t>(g.vars.tc)] = 110.0;
  x[static_cast<size_t>(g.vars.s[1])] = 80.0;
  x[static_cast<size_t>(g.vars.T[0])] = 80.0;
  x[static_cast<size_t>(g.vars.D[2])] = 7.0;
  const ClockSchedule sch = schedule_from_solution(g.vars, x);
  EXPECT_DOUBLE_EQ(sch.cycle, 110.0);
  EXPECT_DOUBLE_EQ(sch.s(2), 80.0);
  EXPECT_DOUBLE_EQ(sch.T(1), 80.0);
  const std::vector<double> d = departures_from_solution(g.vars, x);
  EXPECT_DOUBLE_EQ(d[2], 7.0);
}

}  // namespace
}  // namespace mintc::opt
