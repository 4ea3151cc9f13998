// Golden-shape tests for the exporters: a canned optimizer run must produce
// Chrome trace-event JSON that is (a) well-formed JSON, (b) monotone in
// timestamp, and (c) balanced in B/E pairs per name — the three properties
// chrome://tracing needs to load the file at all.
#include "obs/export.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "circuits/example2.h"
#include "json_validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/mlp.h"

namespace mintc::obs {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
    MetricsRegistry::instance().reset();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
};

// Run the whole MLP pipeline on Example 2 with tracing on — the canned run.
std::vector<TraceEvent> canned_run_events() {
  Tracer::instance().set_enabled(true);
  const auto r = opt::minimize_cycle_time(circuits::example2());
  Tracer::instance().set_enabled(false);
  EXPECT_TRUE(r.has_value());
  return Tracer::instance().snapshot();
}

TEST_F(ExportTest, CannedRunProducesValidJson) {
  const std::string json = chrome_trace_json(canned_run_events());
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json;
  // The documented envelope and the spans the MLP layer promises.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("mlp.solve"), std::string::npos);
  EXPECT_NE(json.find("mlp.lp-solve"), std::string::npos);
  EXPECT_NE(json.find("mlp.slide-fixpoint"), std::string::npos);
  EXPECT_NE(json.find("simplex.solve"), std::string::npos);
  EXPECT_NE(json.find("fixpoint.solve"), std::string::npos);
}

TEST_F(ExportTest, CannedRunTimestampsAreMonotone) {
  const std::vector<TraceEvent> events = canned_run_events();
  ASSERT_FALSE(events.empty());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us) << "at index " << i;
  }
}

TEST_F(ExportTest, CannedRunBeginEndPairsBalance) {
  const std::vector<TraceEvent> events = canned_run_events();
  std::map<std::string, int> depth;
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kBegin) {
      ++depth[e.name];
    } else if (e.kind == EventKind::kEnd) {
      --depth[e.name];
      EXPECT_GE(depth[e.name], 0) << "end before begin for " << e.name;
    }
  }
  for (const auto& [name, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced span " << name;
  }
}

TEST_F(ExportTest, ChromeTraceEventShapes) {
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.begin_span("work", "cat");
  t.counter("residual", 2.5, "cat");
  t.instant("mark", "cat");
  t.end_span("work", "cat");
  t.set_enabled(false);
  const std::string json = chrome_trace_json(t.snapshot());
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 2.5"), std::string::npos);  // counter args
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);    // instant scope
}

TEST_F(ExportTest, EmptyTraceIsStillValidJson) {
  const std::string json = chrome_trace_json({});
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json;
}

TEST_F(ExportTest, MetricsJsonIsValidAndEscaped) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("test.export.c", {{"note", "quote\"back\\slash"}}).inc(3);
  reg.histogram("test.export.h", {}, {1.0, 2.0}).observe(1.5);
  const std::string json = metrics_json(reg.snapshot());
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("test.export.c"), std::string::npos);
  EXPECT_NE(json.find("\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST_F(ExportTest, MetricsJsonClampsNonFiniteGauges) {
  auto& reg = MetricsRegistry::instance();
  reg.gauge("test.export.overflowed").set(1.0 / 0.0);
  reg.gauge("test.export.undefined").set(0.0 / 0.0);
  const std::string json = metrics_json(reg.snapshot());
  // Bare NaN / Inf are not JSON; the exporter must clamp them.
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST_F(ExportTest, MetricsJsonCarriesRunMetadataHeader) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("test.meta.c").inc();
  run_metadata().circuit = "meta_circuit";
  run_metadata().schedule_hash = fnv1a_hex("schedule-bytes");
  const std::string json = metrics_json(reg.snapshot());
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"meta\""), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"mintc "), std::string::npos);
  EXPECT_NE(json.find("\"circuit\": \"meta_circuit\""), std::string::npos);
  EXPECT_NE(json.find(fnv1a_hex("schedule-bytes")), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  run_metadata().circuit.clear();
  run_metadata().schedule_hash.clear();
}

TEST_F(ExportTest, ChromeTraceCarriesRunMetadata) {
  const std::string json = chrome_trace_json({});
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"metadata\""), std::string::npos);
  EXPECT_NE(json.find("\"tool\""), std::string::npos);
}

TEST_F(ExportTest, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a_hex("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(fnv1a_hex("foobar"), "85944171f73967e8");
}

TEST_F(ExportTest, HistogramJsonAndTableCarryQuantiles) {
  auto& reg = MetricsRegistry::instance();
  auto& h = reg.histogram("test.export.q", {}, {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) h.observe(v);
  const auto points = reg.snapshot();
  const std::string json = metrics_json(points);
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  const std::string table = metrics_table(points);
  EXPECT_NE(table.find("p50"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
  for (const MetricPoint& p : points) {
    if (p.name != "test.export.q") continue;
    EXPECT_NEAR(p.p50, 50.0, 10.0);
    EXPECT_NEAR(p.p95, 95.0, 10.0);
    EXPECT_NEAR(p.p99, 99.0, 10.0);
  }
}

TEST_F(ExportTest, MetricsTableMentionsEveryMetric) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("test.table.one").inc();
  reg.gauge("test.table.two").set(5.0);
  const std::string table = metrics_table(reg.snapshot());
  EXPECT_NE(table.find("test.table.one"), std::string::npos);
  EXPECT_NE(table.find("test.table.two"), std::string::npos);
}

TEST_F(ExportTest, ChromeTraceSplicesArgsIntoOneObject) {
  std::vector<TraceEvent> events(2);
  events[0].kind = EventKind::kBegin;
  events[0].name = "serve.analyze";
  events[0].args = R"({"trace": "000000deadbeef01", "verb": "analyze"})";
  events[1].kind = EventKind::kCounter;
  events[1].name = "residual";
  events[1].value = 0.5;
  events[1].args = R"({"unit": "ns"})";
  const std::string json = chrome_trace_json(events);
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json;
  // Pre-rendered args are SPLICED into the event's one "args" object, after
  // a counter's value, not nested under it.
  EXPECT_NE(json.find(R"("args": {"trace": "000000deadbeef01", "verb": "analyze"})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"("args": {"value": 0.5, "unit": "ns"})"), std::string::npos) << json;
}

TEST_F(ExportTest, PrometheusTextGoldenFormat) {
  MetricsRegistry reg;  // local registry: exact golden output
  reg.counter("serve.requests", {{"verb", "analyze"}}).inc(3);
  reg.gauge("pool.depth").set(2.5);
  auto& h = reg.histogram("serve.latency_us", {}, {1.0, 10.0});
  h.observe(0.5);
  h.observe(4.0);
  h.observe(40.0);
  const std::string text = prometheus_text(reg.snapshot());
  // The derived _min/_max/_p999 gauges trail the snapshot-ordered families:
  // they are synthesized in a second pass so each suffix gets exactly one
  // # TYPE line even when several histograms contribute.
  const std::string expected =
      "# TYPE mintc_pool_depth gauge\n"
      "mintc_pool_depth 2.5\n"
      "# TYPE mintc_serve_latency_us histogram\n"
      "mintc_serve_latency_us_bucket{le=\"1\"} 1\n"
      "mintc_serve_latency_us_bucket{le=\"10\"} 2\n"
      "mintc_serve_latency_us_bucket{le=\"+Inf\"} 3\n"
      "mintc_serve_latency_us_sum 44.5\n"
      "mintc_serve_latency_us_count 3\n"
      "# TYPE mintc_serve_requests_total counter\n"
      "mintc_serve_requests_total{verb=\"analyze\"} 3\n"
      "# TYPE mintc_serve_latency_us_min gauge\n"
      "mintc_serve_latency_us_min 0.5\n"
      "# TYPE mintc_serve_latency_us_max gauge\n"
      "mintc_serve_latency_us_max 40\n"
      "# TYPE mintc_serve_latency_us_p999 gauge\n"
      "mintc_serve_latency_us_p999 39.91\n";
  EXPECT_EQ(text, expected);
}

TEST_F(ExportTest, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("esc", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find(R"(path="a\\b\"c\nd")"), std::string::npos) << text;
}

TEST_F(ExportTest, PrometheusHistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat", {}, {1.0, 2.0, 5.0});
  for (const double v : {0.5, 1.5, 1.7, 3.0, 100.0}) h.observe(v);
  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE mintc_lat histogram"), std::string::npos) << text;
  EXPECT_NE(text.find("mintc_lat_bucket{le=\"1\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("mintc_lat_bucket{le=\"2\"} 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("mintc_lat_bucket{le=\"5\"} 4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("mintc_lat_bucket{le=\"+Inf\"} 5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("mintc_lat_count 5\n"), std::string::npos) << text;
  const size_t sum_pos = text.find("mintc_lat_sum ");
  ASSERT_NE(sum_pos, std::string::npos) << text;
  EXPECT_NEAR(std::stod(text.substr(sum_pos + 14)), 106.7, 1e-9);

  // Cumulative monotonicity, mechanically: successive bucket counts on the
  // same family must be non-decreasing and end at _count.
  long prev = -1;
  size_t pos = 0;
  while ((pos = text.find("mintc_lat_bucket{", pos)) != std::string::npos) {
    const size_t space = text.find(' ', pos);
    const long v = std::stol(text.substr(space + 1));
    EXPECT_GE(v, prev);
    prev = v;
    ++pos;
  }
  EXPECT_EQ(prev, 5);
}

TEST_F(ExportTest, PrometheusOneTypeLinePerFamily) {
  MetricsRegistry reg;
  reg.counter("fam", {{"verb", "a"}}).inc();
  reg.counter("fam", {{"verb", "b"}}).inc(2);
  const std::string text = prometheus_text(reg.snapshot());
  size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE mintc_fam_total counter", pos)) != std::string::npos) {
    ++type_lines;
    ++pos;
  }
  EXPECT_EQ(type_lines, 1u) << text;
  EXPECT_NE(text.find("mintc_fam_total{verb=\"a\"} 1"), std::string::npos);
  EXPECT_NE(text.find("mintc_fam_total{verb=\"b\"} 2"), std::string::npos);
}

TEST_F(ExportTest, PrometheusSanitizesMetricNames) {
  MetricsRegistry reg;
  reg.gauge("pool.worker-utilization").set(0.5);
  const std::string text = prometheus_text(reg.snapshot());
  // Dots and dashes are not legal in Prometheus metric names.
  EXPECT_NE(text.find("mintc_pool_worker_utilization 0.5"), std::string::npos) << text;
}

// The number and escape writers against the stream and per-character
// implementations they replaced, which stay here as references.
std::string reference_number(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
  std::ostringstream out;
  out.precision(15);
  out << v;
  return out.str();
}

std::string reference_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST_F(ExportTest, JsonNumberMatchesTheStreamReference) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                0.1,
                                4.3999999999999995,
                                1e21,
                                1e15,
                                1e16,
                                123456789012345.67,
                                -2.5e-7,
                                DBL_MAX,
                                -DBL_MAX,
                                DBL_MIN,
                                std::numeric_limits<double>::denorm_min(),
                                2.2250738585072009e-308,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::nan("")};
  std::mt19937_64 rng(20261018);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
    values.push_back(std::ldexp(static_cast<double>(bits >> 11), -20));  // ordinary magnitudes
  }
  for (const double v : values) {
    ASSERT_EQ(json_number(v), reference_number(v)) << std::hexfloat << v;
  }
}

TEST_F(ExportTest, JsonEscapeMatchesThePerCharacterReference) {
  std::vector<std::string> inputs = {"", "plain", "\"quoted\"", "back\\slash", "tab\tnew\nline",
                                     std::string("nul\0mid", 7), "\x01\x1f\x7f\x80\xff",
                                     "trailing\\"};
  std::string every_byte;
  for (int c = 0; c < 256; ++c) every_byte += static_cast<char>(c);
  inputs.push_back(every_byte);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng() % 40, ' ');
    for (char& c : s) {
      // Mostly text, with escapes in runs and alone.
      const std::uint64_t r = rng() % 16;
      c = r < 10 ? static_cast<char>('a' + r) : "\"\\\n\t\x02\x1f"[r - 10];
    }
    inputs.push_back(s);
  }
  inputs.push_back(std::string(70000, '"') + every_byte + std::string(5000, 'x'));
  for (const std::string& s : inputs) {
    EXPECT_EQ(json_escape(s), reference_escape(s)) << s;
    std::string appended = "prefix:";
    json_escape_to(appended, s);
    EXPECT_EQ(appended, "prefix:" + reference_escape(s)) << s;
    // The long-string form writes the same bytes and leaves the room asked.
    std::string sized = "prefix:";
    json_escape_long_to(sized, s, 100);
    EXPECT_EQ(sized, appended) << s;
    EXPECT_GE(sized.capacity(), sized.size() + 100);
  }
}

}  // namespace
}  // namespace mintc::obs
