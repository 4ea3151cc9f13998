// Strict-parser and bit-exact round-trip tests for the serve JSON layer.
#include "serve/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace mintc::serve {
namespace {

Json parse_ok(const std::string& text) {
  Expected<Json> v = parse_json(text);
  EXPECT_TRUE(v) << text << ": " << (v ? "" : v.error().to_string());
  return v ? std::move(*v) : Json();
}

TEST(ServeJson, ParsesPrimitives) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_EQ(parse_ok("true").as_bool(false), true);
  EXPECT_EQ(parse_ok("false").as_bool(true), false);
  EXPECT_EQ(parse_ok("42").as_number(), 42.0);
  EXPECT_EQ(parse_ok("-7.5e2").as_number(), -750.0);
  EXPECT_EQ(parse_ok("\"hi\\n\\\"there\\\"\"").as_string(), "hi\n\"there\"");
  EXPECT_EQ(parse_ok("  [1, 2, 3]  ").size(), 3u);
}

TEST(ServeJson, ObjectKeepsInsertionOrderAndLooksUpByKey) {
  const Json v = parse_ok(R"({"zulu": 1, "alpha": 2, "zulu2": {"n": true}})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.fields().size(), 3u);
  EXPECT_EQ(v.fields()[0].first, "zulu");
  EXPECT_EQ(v.fields()[1].first, "alpha");
  EXPECT_EQ(v.get("alpha").as_number(), 2.0);
  EXPECT_TRUE(v.get("zulu2").get("n").as_bool(false));
  EXPECT_TRUE(v.get("missing").is_null());
}

TEST(ServeJson, DumpReparsesToEqualValue) {
  const std::string text =
      R"({"a": [1, 2.5, "x"], "b": {"c": null, "d": false}, "e": "q\"uote"})";
  const Json v = parse_ok(text);
  const Json again = parse_ok(v.dump());
  EXPECT_EQ(v, again);
}

TEST(ServeJson, DoublesRoundTripBitExactly) {
  // Values chosen to break naive %.15g rendering: many decimal digits, huge
  // and tiny magnitudes, and an actual departure value from the soak.
  const double cases[] = {0.1,
                          1.0 / 3.0,
                          29.352354500000047,
                          1e-300,
                          123456789.123456789,
                          std::nextafter(1.0, 2.0),
                          -2.2250738585072014e-308};
  for (const double want : cases) {
    const std::string text = json_double(want);
    const Json v = parse_ok(text);
    const double got = v.as_number();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << text << " reparsed to " << got;
  }
}

TEST(ServeJson, NonFiniteDumpsAsFiniteJson) {
  // JSON has no Inf/NaN literal; the writer clamps instead of emitting
  // garbage the strict parser would reject.
  EXPECT_TRUE(parse_json(json_double(std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(parse_json(json_double(std::nan(""))));
}

TEST(ServeJson, RejectsMalformedInput) {
  const char* bad[] = {"",        "{",        "[1, 2",       "{\"a\": }",
                       "nul",     "tru",      "01",          "1.2.3",
                       "\"unterminated", "{\"a\": 1} extra", "[1,]", "NaN",
                       "Infinity", "{'a': 1}", "{\"a\" 1}"};
  for (const char* text : bad) {
    EXPECT_FALSE(parse_json(text)) << "accepted: " << text;
  }
}

TEST(ServeJson, ErrorsCarryByteOffsets) {
  const Expected<Json> v = parse_json("{\"ok\": tru}");
  ASSERT_FALSE(v);
  EXPECT_NE(v.error().to_string().find("at byte"), std::string::npos);
}

TEST(ServeJson, DepthCapStopsRecursion) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  for (int i = 0; i < 200; ++i) deep += "]";
  EXPECT_FALSE(parse_json(deep));
  JsonParseOptions loose;
  loose.max_depth = 300;
  EXPECT_TRUE(parse_json(deep, loose));
}

TEST(ServeJson, IntegerAccessorsSaturateOutOfRange) {
  // Numbers past long's range are client input; the accessors clamp instead
  // of casting (undefined behavior beyond the range).
  constexpr long kMax = std::numeric_limits<long>::max();
  constexpr long kMin = std::numeric_limits<long>::min();
  EXPECT_EQ(Json(1e300).as_long(), kMax);
  EXPECT_EQ(Json(-1e300).as_long(), kMin);
  EXPECT_EQ(Json(1e19).as_long(), kMax);
  EXPECT_EQ(Json(-1e19).as_long(), kMin);
  // In range: truncation toward zero, as before.
  EXPECT_EQ(Json(-3.7).as_long(), -3);
  EXPECT_EQ(Json(9007199254740992.0).as_long(), 9007199254740992L);

  const Json parsed = parse_ok(R"({"a": 1e300, "b": -1e300, "c": 1e19})");
  EXPECT_EQ(parsed.long_or("a", 0), kMax);
  EXPECT_EQ(parsed.long_or("b", 0), kMin);
  EXPECT_EQ(parsed.long_or("c", 0), kMax);
  EXPECT_EQ(parsed.get("a").as_long(), kMax);
}

TEST(ServeJson, StringEscapesSurviveDump) {
  Json v = Json::object();
  v.set("s", Json(std::string("line1\nline2\ttab\x01" "end")));
  const std::string text = v.dump();
  EXPECT_EQ(text.find('\n'), std::string::npos);  // one-line frames
  EXPECT_EQ(parse_ok(text).get("s").as_string(),
            std::string("line1\nline2\ttab\x01" "end"));
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Numbers past double's range: an underflow reads as a signed zero, an
// overflow is an error. Everything the C library reads as finite parses to
// its bits.
TEST(ServeJson, ParsesNumbersAsTheCLibraryReadsThem) {
  EXPECT_TRUE(same_bits(parse_ok("1e-400").as_number(-1.0), 0.0));
  EXPECT_TRUE(same_bits(parse_ok("-1e-400").as_number(-1.0), -0.0));
  EXPECT_TRUE(same_bits(parse_ok("2e-324").as_number(-1.0), 0.0));
  EXPECT_TRUE(same_bits(parse_ok("5e-324").as_number(),
                        std::numeric_limits<double>::denorm_min()));
  EXPECT_TRUE(same_bits(parse_ok("-0").as_number(1.0), -0.0));
  EXPECT_TRUE(same_bits(parse_ok("2.2250738585072011e-308").as_number(),
                        std::strtod("2.2250738585072011e-308", nullptr)));
  for (const char* huge : {"1e400", "-1e400"}) {
    const Expected<Json> v = parse_json(huge);
    ASSERT_FALSE(v) << huge;
    EXPECT_NE(v.error().message.find("number out of double range"), std::string::npos)
        << v.error().to_string();
  }

  // Where the digits put the magnitude, not just the exponent's sign.
  const std::string zeros(400, '0');
  const std::vector<std::string> cases = {
      "1000e-330",  "0.0000001e-320", "0." + zeros + "1", "-0." + zeros + "1",
      "1" + zeros,  "-1" + zeros,     "1" + zeros + "e-300", "0." + zeros + "1e+300",
      "1e-0000000000000000000000400", "1e+0000000000000000000000400",
      "1e99999999999999999999999", "1e-99999999999999999999999", "0e99999", "0.000e-400",
      "2.4703282292062327e-324", "2.4703282292062328e-324", "1.7976931348623157e308",
      "1.7976931348623159e308"};
  for (const std::string& text : cases) {
    const double want = std::strtod(text.c_str(), nullptr);
    const Expected<Json> v = parse_json(text);
    if (std::isfinite(want)) {
      ASSERT_TRUE(v) << text << ": " << v.error().to_string();
      EXPECT_TRUE(same_bits(v->as_number(), want)) << text;
    } else {
      EXPECT_FALSE(v) << text;
    }
  }
}

// The reference rendering: the same %.15g/%.16g/%.17g probe through
// snprintf and strtod.
std::string reference_double(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
  char buf[40];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(ServeJson, JsonDoubleMatchesThePrintfReference) {
  std::vector<double> values = {0.0,
                                -0.0,
                                0.1,
                                1.0 / 3.0,
                                4.3999999999999995,
                                4.4,
                                110.0,
                                1e21,
                                1e-5,
                                123456789012345678.0,
                                DBL_MAX,
                                -DBL_MAX,
                                DBL_MIN,
                                std::nextafter(DBL_MIN, 0.0),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                2.2250738585072009e-308,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::nan("")};
  std::mt19937_64 rng(19);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
  }
  for (const double v : values) {
    const std::string text = json_double(v);
    ASSERT_EQ(text, reference_double(v)) << std::hexfloat << v;
    if (!std::isfinite(v)) continue;
    const Expected<Json> back = parse_json(text);
    ASSERT_TRUE(back) << text;
    ASSERT_TRUE(same_bits(back->as_number(), v)) << text;
  }
}

// The oracle: the probe the codec ran before its one-pass form. Format
// %.15g, %.16g and %.17g with to_chars in turn and keep the first that
// from_chars reads back as v.
std::string probe_double(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
  char buf[32];
  char* end = buf;
  for (const int prec : {15, 16, 17}) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  return std::string(buf, end);
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Whether json_double renders `v` as the probe does; a difference is
/// reported once, with the value's bits.
bool matches_probe(double v) {
  const std::string got = json_double(v);
  const std::string want = probe_double(v);
  if (got == want) return true;
  ADD_FAILURE() << std::hexfloat << v << std::defaultfloat << ": " << got << ", probe " << want;
  return false;
}

TEST(ServeJson, OnePassDoubleMatchesTheProbeAtEdgesAndOnDelays) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  for (const double v : {0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, denorm_min,
                         -denorm_min, std::nextafter(DBL_MIN, 0.0), 0.1 + 0.2, 4.4}) {
    if (!matches_probe(v)) return;
  }
  // Every power of ten and every power of two in the double range, and
  // their neighbours one ulp away. Below a power of two the rounding
  // interval is half as wide (2^-1017 reads back only as %.17g).
  std::vector<double> powers;
  for (int e = -323; e <= 308; ++e) {
    powers.push_back(std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));
  }
  for (int e = -1074; e <= 1023; ++e) powers.push_back(std::ldexp(1.0, e));
  for (const double p : powers) {
    for (const double v : {p, std::nextafter(p, 0.0), std::nextafter(p, DBL_MAX)}) {
      if (!matches_probe(v) || !matches_probe(-v)) return;
    }
  }
  EXPECT_EQ(json_double(std::ldexp(1.0, -1017)), "7.1202363472230444e-307");
  std::mt19937_64 rng(2104);
  // Subnormals: random mantissas, either sign, under the smallest exponent.
  for (int i = 0; i < 20000; ++i) {
    if (!matches_probe(from_bits(rng() & 0x800FFFFFFFFFFFFFull))) return;
  }
  // Sums, differences and products of delays drawn log-uniform in
  // 1e-3..1e3, half of them at the picosecond resolution of a netlist.
  std::uniform_real_distribution<double> decade(-3.0, 3.0);
  for (int i = 0; i < 200000; ++i) {
    double a = std::pow(10.0, decade(rng));
    double b = std::pow(10.0, decade(rng));
    if (i % 2 != 0) {
      a = std::round(a * 1000.0) / 1000.0;
      b = std::round(b * 1000.0) / 1000.0;
    }
    if (!matches_probe(a + b) || !matches_probe(a - b) || !matches_probe(a * b)) return;
  }
}

TEST(ServeJson, OnePassDoubleMatchesTheProbeOnRandomBits) {
  // Every exponent, NaNs and infinities included.
  std::mt19937_64 rng(9001);
  for (int i = 0; i < 2000000; ++i) {
    if (!matches_probe(from_bits(rng()))) return;
  }
}

TEST(ServeJson, RawFragmentDumpsVerbatimAndReadsAsNothing) {
  const Json raw = Json::raw(R"({"a":[1,2.5],"s":"x\ny"})");
  EXPECT_EQ(raw.kind(), Json::Kind::kRaw);
  EXPECT_FALSE(raw.is_object() || raw.is_string() || raw.is_null());
  EXPECT_EQ(raw.size(), 0u);
  EXPECT_TRUE(raw.get("a").is_null());
  EXPECT_EQ(raw.as_string(), "");
  EXPECT_EQ(raw, Json::raw(R"({"a":[1,2.5],"s":"x\ny"})"));
  EXPECT_NE(raw, Json(std::string(R"({"a":[1,2.5],"s":"x\ny"})")));

  Json envelope = Json::object();
  envelope.set("ok", Json(true));
  envelope.set("result", raw);
  EXPECT_EQ(envelope.dump(), R"({"ok":true,"result":{"a":[1,2.5],"s":"x\ny"}})");
  EXPECT_EQ(parse_ok(envelope.dump()).get("result"), parse_ok(raw.dump()));
}

}  // namespace
}  // namespace mintc::serve
