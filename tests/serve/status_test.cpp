// The `status` verb: one self-contained HTML document with every section of
// the live ops dashboard. These tests pin the envelope shape, the
// single-document invariants (no scripts, exactly one DOCTYPE) and that the
// sections reflect real service state — traffic in the slow table, history
// samples in the sparkline section, the transport row while a transport's
// runtime sampler is installed.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace mintc::serve {
namespace {

Json req(std::initializer_list<std::pair<std::string, Json>> fields) {
  Json r = Json::object();
  for (const auto& [k, v] : fields) r.set(k, v);
  return r;
}

Json expect_ok(TimingService& service, const Json& request) {
  const Json response = service.handle(request);
  EXPECT_TRUE(response.get("ok").as_bool(false)) << response.dump();
  return response;
}

Json load_example1(TimingService& service, const std::string& key) {
  return expect_ok(service,
                   req({{"verb", Json("load")}, {"circuit", Json(key)},
                        {"builtin", Json("example1")}}));
}

size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

class ServeStatusTest : public ::testing::Test {
 protected:
  // The metrics registry is process-wide; status renders from it.
  void SetUp() override { obs::MetricsRegistry::instance().reset(); }
};

TEST_F(ServeStatusTest, StatusVerbReturnsOneSelfContainedHtmlDocument) {
  TimingService service;
  load_example1(service, "e1");
  const Json response = expect_ok(service, req({{"verb", Json("status")}}));
  const Json& result = response.get("result");
  EXPECT_EQ(result.get("format").as_string(), "html");
  const std::string html = result.get("content").as_string();

  // Single document, self-contained: no scripts, no external assets, one
  // DOCTYPE, balanced html tags.
  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_EQ(html.substr(html.size() - 8), "</html>\n");
  EXPECT_EQ(count_occurrences(html, "<!DOCTYPE"), 1u);
  EXPECT_EQ(count_occurrences(html, "<html"), 1u);
  EXPECT_EQ(count_occurrences(html, "</html>"), 1u);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("src=\"http"), std::string::npos);
  EXPECT_NE(html.find("<style>"), std::string::npos);

  // Every dashboard section renders, even on a quiet service.
  for (const char* section :
       {"recent history", "request latency (us)", "attributed CPU per request (us)",
        "edge relaxations per request", "session pool", "result cache",
        "slowest requests", "<th>lock_wait</th>"}) {
    EXPECT_NE(html.find(section), std::string::npos) << section;
  }
}

TEST_F(ServeStatusTest, IdentityAndTrafficShowUp) {
  TimingService service;
  load_example1(service, "e1");
  expect_ok(service, req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}));
  // A traced request: its 16-hex id must land in the slow-request table.
  expect_ok(service, req({{"verb", Json("analyze")}, {"circuit", Json("e1")},
                          {"detail", Json(true)}, {"trace", Json("deadbeef01")}}));

  const std::string html = service.status_html();
  const obs::BuildInfo& build = obs::build_info();
  EXPECT_NE(html.find(build.version), std::string::npos);
  EXPECT_NE(html.find(build.git), std::string::npos);

  // Slow table: the analyze rows carry the verb, circuit key and trace id;
  // untraced rows render an em-dash placeholder.
  EXPECT_NE(html.find("<td>analyze</td>"), std::string::npos) << html;
  EXPECT_NE(html.find("<td>e1</td>"), std::string::npos);
  EXPECT_NE(html.find("000000deadbeef01"), std::string::npos);
  EXPECT_NE(html.find("&mdash;"), std::string::npos);
  // Session pool table lists the loaded circuit.
  EXPECT_NE(html.find("session pool"), std::string::npos);
}

TEST_F(ServeStatusTest, HistorySamplesFeedTheSparklines) {
  TimingService service;
  load_example1(service, "e1");
  expect_ok(service, req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}));
  service.record_history_sample();
  service.record_history_sample();
  EXPECT_EQ(service.history().size(), 2u);

  const std::string html = service.status_html();
  EXPECT_NE(html.find("2 of "), std::string::npos) << html;
  EXPECT_NE(html.find("requests/s"), std::string::npos);
  EXPECT_NE(html.find("latency p95 (us)"), std::string::npos);
  // Sparklines are inline SVG polylines.
  EXPECT_NE(html.find("<polyline"), std::string::npos);
}

TEST_F(ServeStatusTest, TransportRowAppearsOnlyWithASampler) {
  TimingService service;
  EXPECT_EQ(service.status_html().find("<h2>transport</h2>"), std::string::npos);

  // The row shows what the sampler published during the render.
  service.set_runtime_sampler([] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    reg.gauge("pool.threads").set(3);
    reg.gauge("pool.busy").set(2);
    reg.gauge("pool.executed").set(41);
    reg.gauge("serve.queue_depth").set(5);
  });
  const std::string html = service.status_html();
  EXPECT_NE(html.find("<h2>transport</h2>"), std::string::npos) << html;
  for (const auto& [value, key] : std::vector<std::pair<std::string, std::string>>{
           {"3", "threads"}, {"2", "busy"}, {"41", "executed"}, {"5", "queue depth"}}) {
    EXPECT_NE(html.find("<div class=\"v\">" + value + "</div><div class=\"k\">" + key + "</div>"),
              std::string::npos)
        << key;
  }

  service.set_runtime_sampler(nullptr);
  EXPECT_EQ(service.status_html().find("<h2>transport</h2>"), std::string::npos);
}

TEST_F(ServeStatusTest, TopParameterClampsAndSizesTheSlowTable) {
  // Only stats traffic: every slow-log row renders "<td>stats</td>", so the
  // row count is exactly what `top` admits.
  TimingService service;
  for (int i = 0; i < 6; ++i) {
    expect_ok(service, req({{"verb", Json("stats")}}));
  }

  const Json top1 = expect_ok(service, req({{"verb", Json("status")}, {"top", Json(1L)}}));
  const Json top50 = expect_ok(service, req({{"verb", Json("status")}, {"top", Json(50L)}}));
  const std::string html1 = top1.get("result").get("content").as_string();
  const std::string html50 = top50.get("result").get("content").as_string();
  EXPECT_EQ(count_occurrences(html1, "<td>stats</td>"), 1u) << html1;
  EXPECT_GT(count_occurrences(html50, "<td>stats</td>"), 1u);

  // Out-of-range values clamp instead of erroring.
  expect_ok(service, req({{"verb", Json("status")}, {"top", Json(0L)}}));
  expect_ok(service, req({{"verb", Json("status")}, {"top", Json(100000L)}}));
}

TEST_F(ServeStatusTest, StatusResponsesAreNotCached) {
  TimingService service;
  const Json first = expect_ok(service, req({{"verb", Json("status")}}));
  const Json second = expect_ok(service, req({{"verb", Json("status")}}));
  EXPECT_FALSE(first.get("cached").as_bool(true));
  EXPECT_FALSE(second.get("cached").as_bool(true));
  // The second render reflects the first status request in the counters.
  EXPECT_GE(obs::MetricsRegistry::instance().counter("serve.requests").value(), 2);
}

}  // namespace
}  // namespace mintc::serve
