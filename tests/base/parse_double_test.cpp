// Differential test of base::parse_double against strtod. The .lct, .lcs
// and Verilog readers all read numbers through parse_double, whose contract
// is strtod's: the trimmed string must be consumed whole, a leading '+' and
// hex floats are numbers, an overflow reads as ±inf and an underflow as ±0.
// Any faster reader must accept and reject the same strings with the same
// bits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <string_view>

#include "base/strings.h"

namespace mintc {
namespace {

bool strtod_reference(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  const std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  out = v;
  return true;
}

uint64_t bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Same verdict, same bits, and a rejected string leaves `out` alone.
void expect_same(const std::string& s) {
  constexpr double kUntouched = 12345.678;
  double got = kUntouched;
  double want = kUntouched;
  const bool ok = parse_double(s, got);
  const bool want_ok = strtod_reference(s, want);
  ASSERT_EQ(ok, want_ok) << '"' << s << '"';
  EXPECT_EQ(bits(got), bits(want)) << '"' << s << '"';
}

TEST(ParseDouble, EdgeStringsMatchStrtod) {
  const char* cases[] = {
      "+1.5", "0x1p3", ".5", "5.", "1E5", " 1 ", "1e-400", "-1e-400", "1e309", "nan", "inf",
      "12x", "-1e309", "+0", "-0", "0", "00012", "-nan", "NaN", "nan()", "nan(123)", "nan(",
      "-inf", "+inf", "Infinity", "infinit", "infx", "", " ", "\t\r\n", "+", "-", ".", "e5",
      "1e", "1e+", "1e+5", "1e-5", "0x", "0X1P-2", "-0x1p3", "0x.8p1", "0x1p3x", "1.0.0",
      "1e5.5", "--1", "+-1", "1,5", "1_000", "\t2\r", "\v3\f", "4.9e-324", "2.4e-324",
      "2.5e-324", "1e-310", "-1e-310", "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1e-5000", "1e5000", "0.000000000000000000000000000000000001", "9007199254740993",
      "123456789012345678901234567890", "1 2", "1e1 ", " -.5e-1", "0e0", "0e99999",
      "1e00000000000000000000000001", "0.1", "0.2", "0.3", "123.456", "-7.25",
  };
  for (const char* s : cases) expect_same(s);
  // A long mantissa that only the full decimal decides (halfway cases).
  expect_same("1." + std::string(800, '0') + "1");
  expect_same("9007199254740992." + std::string(700, '0') + "1");
  expect_same("0." + std::string(400, '0') + "1");
}

TEST(ParseDouble, RandomDecimalsMatchStrtod) {
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> log_mag(-3.0, 3.0);
  std::uniform_real_distribution<double> wide(-330.0, 310.0);
  std::uniform_int_distribution<int> precision(1, 17);
  std::uniform_int_distribution<int> style(0, 3);
  char buf[128];
  for (int i = 0; i < 100000; ++i) {
    // Most draws in the delays' range, one in five anywhere a double reaches.
    const double mag = std::pow(10.0, i % 5 == 0 ? wide(rng) : log_mag(rng));
    const double v = (rng() & 1) != 0 ? -mag : mag;
    const int p = precision(rng);
    switch (style(rng)) {
      case 0: std::snprintf(buf, sizeof buf, "%.*g", p, v); break;
      case 1: std::snprintf(buf, sizeof buf, "%.*e", p, v); break;
      case 2: std::snprintf(buf, sizeof buf, "%.*f", p % 7, v); break;
      default: {
        // Random digit strings with a random exponent, some past the range.
        std::string digits;
        const int n = 1 + static_cast<int>(rng() % 25);
        for (int d = 0; d < n; ++d) digits.push_back(static_cast<char>('0' + rng() % 10));
        const int exp = static_cast<int>(rng() % 700) - 350;
        std::snprintf(buf, sizeof buf, "%s%s.%se%d", (rng() & 1) != 0 ? "-" : "",
                      digits.substr(0, 1).c_str(), digits.substr(1).c_str(), exp);
        break;
      }
    }
    expect_same(buf);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mintc
