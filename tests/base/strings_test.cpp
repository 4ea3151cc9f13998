#include "base/strings.h"

#include <gtest/gtest.h>

namespace mintc {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("\t a b \n"), "a b");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("latch L1", "latch"));
  EXPECT_FALSE(starts_with("lat", "latch"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("12.5", v));
  EXPECT_DOUBLE_EQ(v, 12.5);
  EXPECT_TRUE(parse_double(" -3e2 ", v));
  EXPECT_DOUBLE_EQ(v, -300.0);
  EXPECT_FALSE(parse_double("12x", v));
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("nanx", v));
}

TEST(Strings, ParseInt) {
  int v = 0;
  EXPECT_TRUE(parse_int("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int("-7", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_int("4.2", v));
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("x", v));
}

TEST(Strings, FmtTimeTrimsZeros) {
  EXPECT_EQ(fmt_time(12.5), "12.5");
  EXPECT_EQ(fmt_time(12.0), "12");
  EXPECT_EQ(fmt_time(12.125, 3), "12.125");
  EXPECT_EQ(fmt_time(12.1256, 3), "12.126");
  EXPECT_EQ(fmt_time(0.0), "0");
  EXPECT_EQ(fmt_time(-0.0), "0");
  EXPECT_EQ(fmt_time(-2.50), "-2.5");
}

}  // namespace
}  // namespace mintc
