// Differential test of fmt_time against printf. Every .lct, .lcs and report
// number is printed by fmt_time, whose contract is printf's "%.*f" with the
// trailing zeros (and a bare point) trimmed and "-0" read as "0". The
// reference below formats with snprintf into a buffer sized to fit, so it
// never truncates; fmt_time must match it byte for byte on every double,
// however long the text.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "base/strings.h"

namespace mintc {
namespace {

std::string printf_reference(double v, int decimals) {
  char buf[400];  // "%.17f" of -DBL_MAX is 328 characters
  const int n = std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  std::string s(buf, static_cast<size_t>(n));
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s == "-0") s = "0";
  return s;
}

void expect_same(double v) {
  for (int decimals = 0; decimals <= 17; ++decimals) {
    const std::string got = fmt_time(v, decimals);
    const std::string want = printf_reference(v, decimals);
    if (got != want) {
      ADD_FAILURE() << std::hexfloat << v << " with " << decimals << " decimals: got " << got
                    << ", printf " << want;
      return;
    }
  }
}

TEST(FmtTime, EdgeValuesMatchPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double cases[] = {0.0, -0.0, 1e-20, -1e-20, -0.0004, -0.00049999, -0.0005, 0.5, 1.5,
                          2.5, -2.5, 0.125, 0.0625, 1e15, 1e16, 1e17, 1e22, 1e23, 1e70,
                          -1e70, 123456789.987654321, kInf, -kInf,
                          std::numeric_limits<double>::quiet_NaN(),
                          -std::numeric_limits<double>::quiet_NaN(), DBL_MIN, -DBL_MIN,
                          DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN / 3.0, DBL_MAX, -DBL_MAX,
                          DBL_EPSILON, 9007199254740993.0, 0.1, 0.2, 0.3, 110.0, 4.4};
  for (const double v : cases) expect_same(v);
}

TEST(FmtTime, RandomDoublesAcrossDecadesMatchPrintf) {
  std::mt19937_64 rng(2025);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> exponent(-40, 90);
  for (int i = 0; i < 100000; ++i) {
    expect_same((rng() & 1 ? -1.0 : 1.0) * mantissa(rng) * std::pow(10.0, exponent(rng)));
  }
  // Any bit pattern: subnormals, huge integers, NaN payloads.
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t b = rng();
    double v = 0.0;
    std::memcpy(&v, &b, sizeof v);
    expect_same(v);
  }
}

TEST(FmtTime, LongTextIsNotCut) {
  // 1e70 prints as 71 digits: the whole integer part, with no cut at 63.
  const std::string s = fmt_time(1e70, 6);
  EXPECT_EQ(s.size(), 71u);
  EXPECT_EQ(s, printf_reference(1e70, 6));
  EXPECT_EQ(fmt_time(-DBL_MAX, 3).size(), 310u);
}

TEST(FmtTime, AppendingFormAppends) {
  std::string out = "t=";
  fmt_time_to(out, 12.50, 3);
  out += ",";
  fmt_time_to(out, -0.0001, 3);
  EXPECT_EQ(out, "t=12.5,0");
}

}  // namespace
}  // namespace mintc
