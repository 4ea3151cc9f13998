// Framing and envelope tests for the line-delimited JSON wire protocol.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>

namespace mintc::serve {
namespace {

void feed(FrameReader& r, const std::string& s) { r.feed(s.data(), s.size()); }

TEST(ServeProtocol, FrameReaderSplitsCompleteLines) {
  FrameReader r;
  feed(r, "one\ntwo\nthr");
  EXPECT_EQ(r.next_line().value_or("-"), "one");
  EXPECT_EQ(r.next_line().value_or("-"), "two");
  EXPECT_FALSE(r.next_line().has_value());  // partial line buffered
  feed(r, "ee\n");
  EXPECT_EQ(r.next_line().value_or("-"), "three");
  EXPECT_FALSE(r.overflowed());
}

TEST(ServeProtocol, FrameReaderStripsCarriageReturn) {
  FrameReader r;
  feed(r, "a\r\n\r\nb\n");
  EXPECT_EQ(r.next_line().value_or("-"), "a");
  EXPECT_EQ(r.next_line().value_or("-"), "");
  EXPECT_EQ(r.next_line().value_or("-"), "b");
}

TEST(ServeProtocol, FrameReaderSurvivesBytewiseFeeding) {
  FrameReader r;
  const std::string wire = "{\"verb\":\"stats\"}\n{\"verb\":\"min\"}\n";
  for (const char c : wire) r.feed(&c, 1);
  EXPECT_EQ(r.next_line().value_or("-"), "{\"verb\":\"stats\"}");
  EXPECT_EQ(r.next_line().value_or("-"), "{\"verb\":\"min\"}");
}

TEST(ServeProtocol, OverflowLatchesOnUnterminatedFrame) {
  FrameReader r(16);
  feed(r, std::string(17, 'x'));  // no newline, over the cap
  EXPECT_TRUE(r.overflowed());
  // A newline cannot resync an overflowed reader: the stream is abandoned.
  feed(r, "\nok\n");
  EXPECT_TRUE(r.overflowed());
}

TEST(ServeProtocol, CompleteLinesUnderCapDoNotOverflow) {
  FrameReader r(16);
  feed(r, "0123456789\nabc\n");
  EXPECT_EQ(r.next_line().value_or("-"), "0123456789");
  EXPECT_EQ(r.next_line().value_or("-"), "abc");
  EXPECT_FALSE(r.overflowed());
}

TEST(ServeProtocol, ParseRequestRequiresObjectWithStringVerb) {
  EXPECT_TRUE(parse_request(R"({"verb": "analyze", "circuit": "c"})"));
  EXPECT_FALSE(parse_request("[1,2,3]"));
  EXPECT_FALSE(parse_request(R"({"circuit": "c"})"));
  EXPECT_FALSE(parse_request(R"({"verb": 7})"));
  EXPECT_FALSE(parse_request("not json"));
}

TEST(ServeProtocol, ParseRequestEnforcesByteCap) {
  std::string big = R"({"verb": "load", "text": ")";
  big += std::string(64, 'x');
  big += "\"}";
  EXPECT_TRUE(parse_request(big));
  EXPECT_FALSE(parse_request(big, 32));
}

TEST(ServeProtocol, EnvelopesEchoTheId) {
  Json result = Json::object();
  result.set("n", Json(1L));
  const Json ok = ok_response(Json(7L), std::move(result), true);
  EXPECT_EQ(ok.get("id").as_long(0), 7);
  EXPECT_TRUE(ok.get("ok").as_bool(false));
  EXPECT_TRUE(ok.get("cached").as_bool(false));
  EXPECT_EQ(ok.get("result").get("n").as_long(0), 1);

  const Json err = error_response(Json("req-9"), "not_loaded", "no such circuit");
  EXPECT_EQ(err.get("id").as_string(), "req-9");
  EXPECT_FALSE(err.get("ok").as_bool(true));
  EXPECT_EQ(err.get("error").get("kind").as_string(), "not_loaded");

  const Json anon = error_response(Json(), "unknown_verb", "nope");
  EXPECT_TRUE(anon.get("id").is_null());
}

TEST(ServeProtocol, EncodeFrameIsExactlyOneLine) {
  Json result = Json::object();
  result.set("text", Json(std::string("two\nlines")));
  const std::string frame = encode_frame(ok_response(Json(1L), std::move(result), false));
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(frame.back(), '\n');
  EXPECT_EQ(frame.find('\n'), frame.size() - 1);  // no embedded newlines
}

TEST(ServeProtocol, TraceFieldAbsentIsInactive) {
  const Expected<Json> request = parse_request(R"({"verb": "analyze"})");
  ASSERT_TRUE(request);
  const Expected<TraceField> trace = parse_trace_field(*request);
  ASSERT_TRUE(trace);
  EXPECT_FALSE(trace->present);
  EXPECT_FALSE(trace->sampled);
}

TEST(ServeProtocol, TraceFieldStringFormRoundTrips) {
  Json request = Json::object();
  request.set("verb", Json("analyze"));
  request.set("trace", Json(trace_id_hex(0xdeadbeef01ull)));
  const Expected<TraceField> trace = parse_trace_field(request);
  ASSERT_TRUE(trace);
  EXPECT_TRUE(trace->present);
  EXPECT_TRUE(trace->sampled);  // string form implies sampled
  EXPECT_EQ(trace->id, 0xdeadbeef01ull);
  EXPECT_EQ(trace_id_hex(trace->id), "000000deadbeef01");
}

TEST(ServeProtocol, TraceFieldObjectFormCarriesSamplingFlag) {
  Json request = Json::object();
  Json field = Json::object();
  field.set("id", Json("1F00"));  // upper-case hex accepted
  field.set("sampled", Json(false));
  request.set("trace", std::move(field));
  const Expected<TraceField> trace = parse_trace_field(request);
  ASSERT_TRUE(trace);
  EXPECT_TRUE(trace->present);
  EXPECT_EQ(trace->id, 0x1f00u);
  EXPECT_FALSE(trace->sampled);  // id present but unsampled
}

TEST(ServeProtocol, TraceFieldRejectsMalformedIds) {
  const auto expect_rejected = [](Json trace_value) {
    Json request = Json::object();
    request.set("verb", Json("analyze"));
    request.set("trace", std::move(trace_value));
    const Expected<TraceField> trace = parse_trace_field(request);
    EXPECT_FALSE(trace.has_value());
    if (!trace) {
      EXPECT_EQ(trace.error().kind, ErrorKind::kInvalidArgument);
    }
  };
  expect_rejected(Json("xyz"));                 // not hex
  expect_rejected(Json(""));                    // empty
  expect_rejected(Json("0"));                   // zero id: reserved
  expect_rejected(Json("0000000000000000"));    // zero, fully spelled
  expect_rejected(Json("11112222333344445"));   // 17 digits: oversized
  expect_rejected(Json(7.0));                   // wrong type entirely
  Json no_id = Json::object();
  no_id.set("sampled", Json(true));
  expect_rejected(std::move(no_id));            // object form without id
  Json numeric_id = Json::object();
  numeric_id.set("id", Json(5.0));
  expect_rejected(std::move(numeric_id));       // id must be a hex STRING
}

TEST(ServeProtocol, TraceIdHexIsFixedWidthLowercase) {
  EXPECT_EQ(trace_id_hex(1), "0000000000000001");
  EXPECT_EQ(trace_id_hex(0xffffffffffffffffull), "ffffffffffffffff");
  EXPECT_EQ(trace_id_hex(0xABCDEFull), "0000000000abcdef");
}

}  // namespace
}  // namespace mintc::serve
