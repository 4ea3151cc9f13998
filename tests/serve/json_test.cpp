// Strict-parser and bit-exact round-trip tests for the serve JSON layer.
#include "serve/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

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

}  // namespace
}  // namespace mintc::serve
