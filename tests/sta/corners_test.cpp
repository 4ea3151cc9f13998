#include "sta/corners.h"

#include <gtest/gtest.h>

#include <string>

#include "circuits/example1.h"
#include "opt/mlp.h"
#include "report/export.h"
#include "report/slackdb.h"

namespace mintc::sta {
namespace {

TEST(Corners, StandardTriple) {
  const auto corners = standard_corners(0.2);
  ASSERT_EQ(corners.size(), 3u);
  EXPECT_EQ(corners[0].name, "slow");
  EXPECT_DOUBLE_EQ(corners[0].delay_scale, 1.2);
  EXPECT_DOUBLE_EQ(corners[2].delay_scale, 0.8);
}

TEST(Corners, DerateScalesEverything) {
  const Circuit c = circuits::example1(80.0);
  const Circuit slow = derate(c, {"slow", 1.5, 1.5});
  EXPECT_DOUBLE_EQ(slow.element(0).setup, 15.0);
  EXPECT_DOUBLE_EQ(slow.element(0).dq, 15.0);
  EXPECT_DOUBLE_EQ(slow.path(3).delay, 120.0);
  EXPECT_NE(slow.name().find("@slow"), std::string::npos);
  EXPECT_TRUE(slow.validate().empty());
}

TEST(Corners, DerateKeepsMinBelowMax) {
  Circuit c("m", 1);
  Element e;
  e.name = "A";
  e.phase = 1;
  e.setup = 1.0;
  e.dq = 2.0;
  e.dq_min = 1.5;
  c.add_element(e);
  // A corner that scales mins up more than maxes must still be consistent.
  const Circuit odd = derate(c, {"odd", 1.0, 2.0});
  EXPECT_LE(odd.element(0).min_dq(), odd.element(0).dq);
  EXPECT_TRUE(odd.validate().empty());
}

// The corners run through report::build_signoff, the one multi-corner path;
// SessionEquivalence.SignoffCornersBitMatchDeratedCopies holds its session
// walk to derate() bit for bit.
TEST(Corners, OptimalScheduleFailsAtSlowCorner) {
  // The exact optimum has zero margin: any slowdown breaks it.
  const Circuit c = circuits::example1(80.0);
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r.has_value());
  const report::SignoffDB db = report::build_signoff(c, r->schedule, standard_corners(0.1));
  EXPECT_FALSE(db.all_pass);
  ASSERT_EQ(db.corners.size(), 3u);
  EXPECT_FALSE(db.corners[0].feasible);  // slow
  EXPECT_TRUE(db.corners[1].feasible);   // typical
}

TEST(Corners, MarginedScheduleSurvivesAllCorners) {
  // Designing WITH a skew/derate margin: optimize the slow-corner circuit,
  // then all corners pass under the resulting schedule (long paths only; no
  // hold constraints in this circuit since min delays are zero and holds 0).
  const Circuit c = circuits::example1(80.0);
  const Circuit slow = derate(c, {"slow", 1.1, 1.1});
  const auto r = opt::minimize_cycle_time(slow);
  ASSERT_TRUE(r.has_value());
  const report::SignoffDB db = report::build_signoff(c, r->schedule, standard_corners(0.1));
  EXPECT_TRUE(db.all_pass) << report::signoff_table(db);
}

TEST(Corners, ReportRendering) {
  const Circuit c = circuits::example1(80.0);
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r.has_value());
  const std::string s = report::signoff_table(report::build_signoff(c, r->schedule));
  EXPECT_NE(s.find("multi-corner signoff: FAIL"), std::string::npos) << s;
  EXPECT_NE(s.find("slow"), std::string::npos);
  EXPECT_NE(s.find("typical"), std::string::npos);
  EXPECT_NE(s.find("fast"), std::string::npos);
  EXPECT_NE(s.find("worst setup"), std::string::npos);
}

}  // namespace
}  // namespace mintc::sta
