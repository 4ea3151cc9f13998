// Per-request cost attribution, end to end through TimingService::handle():
// the envelope "cost" block must reconcile with the engine's own EngineStats
// for the same content and stay OUT of the (cacheable) result payload.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "circuits/example1.h"
#include "serve/service.h"
#include "sta/analysis.h"
#include "sta/session.h"

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

ClockSchedule schedule_from(const Json& s) {
  ClockSchedule out;
  out.cycle = s.num_or("cycle", 0.0);
  for (const Json& v : s.get("start").items()) out.start.push_back(v.as_number());
  for (const Json& v : s.get("width").items()) out.width.push_back(v.as_number());
  return out;
}

TEST(ServeCost, NoCostBlockUnlessRequested) {
  TimingService service;
  load_example1(service, "e1");
  const Json plain =
      expect_ok(service, req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}));
  EXPECT_FALSE(plain.get("cost").is_object()) << plain.dump();
  // An explicit false is false, not "mentioned therefore on".
  const Json declined = expect_ok(service, req({{"verb", Json("analyze")},
                                                {"circuit", Json("e1")},
                                                {"cost", Json(false)}}));
  EXPECT_FALSE(declined.get("cost").is_object()) << declined.dump();
}

TEST(ServeCost, ScalarAnalyzeCostMatchesEngineStats) {
  // Cache off so the analyze below is a real solve, not a rendered replay.
  ServiceConfig config;
  config.cache_bytes = 0;
  TimingService service(config);
  const Json loaded = load_example1(service, "e1").get("result");

  const Json response = expect_ok(service, req({{"verb", Json("analyze")},
                                                {"circuit", Json("e1")},
                                                {"cost", Json(true)}}));
  const Json& cost = response.get("cost");
  ASSERT_TRUE(cost.is_object()) << response.dump();

  // Mirror the served session exactly: same circuit, the schedule the load
  // response reported, same options — a fresh session whose FIRST analyze
  // does the same departure + early(hold) fixpoint work the service just
  // charged to the account.
  sta::AnalysisOptions options;
  options.check_hold = true;
  sta::AnalysisSession mirror(circuits::example1(), schedule_from(loaded.get("schedule")),
                              options);
  const sta::TimingReport& report = mirror.analyze();

  EXPECT_GT(report.stats.edge_relaxations, 0);
  EXPECT_EQ(cost.long_or("relaxations", -1), report.stats.edge_relaxations);
  // EngineStats.sweeps covers only the departure fixpoint; the account adds
  // the early (hold) fixpoint's sweeps on top.
  EXPECT_GE(cost.long_or("sweeps", -1), report.stats.sweeps);
  // Departure fixpoint + early fixpoint = two charged solve completions.
  EXPECT_EQ(cost.long_or("solves", -1), 2);
  EXPECT_GE(cost.long_or("cpu_us", -1), 0);
}

TEST(ServeCost, CachedHitChargesNoEngineWork) {
  TimingService service;  // cache on
  load_example1(service, "e1");
  const Json request = req({{"verb", Json("analyze")}, {"circuit", Json("e1")},
                            {"cost", Json(true)}});
  const Json first = expect_ok(service, request);
  const Json second = expect_ok(service, request);
  ASSERT_TRUE(second.get("cached").as_bool(false)) << second.dump();

  EXPECT_GT(first.get("cost").long_or("relaxations", 0), 0) << first.dump();
  const Json& cost = second.get("cost");
  ASSERT_TRUE(cost.is_object()) << second.dump();
  EXPECT_EQ(cost.long_or("relaxations", -1), 0);
  EXPECT_EQ(cost.long_or("solves", -1), 0);
  EXPECT_GE(cost.long_or("cpu_us", -1), 0);  // parse/render CPU still charged
}

TEST(ServeCost, ResultPayloadIsIdenticalWithAndWithoutCost) {
  // The cost block lives on the ENVELOPE: a cached payload must replay
  // byte-identically no matter which requests asked for attribution.
  TimingService service;
  load_example1(service, "e1");
  const Json with_cost = expect_ok(service, req({{"verb", Json("analyze")},
                                                 {"circuit", Json("e1")},
                                                 {"cost", Json(true)}}));
  const Json without = expect_ok(service, req({{"verb", Json("analyze")},
                                               {"circuit", Json("e1")}}));
  EXPECT_TRUE(without.get("cached").as_bool(false));
  EXPECT_EQ(with_cost.get("result").dump(), without.get("result").dump());
  EXPECT_TRUE(with_cost.get("cost").is_object());
  EXPECT_FALSE(without.get("cost").is_object());
}

TEST(ServeCost, TelemetryOffStillEchoesAZeroCostBlock) {
  // The "cost" field is protocol; attribution is telemetry. With telemetry
  // off nothing charges the account, but the opt-in echo still answers —
  // with zeros — so clients need not special-case server tuning.
  ServiceConfig config;
  config.telemetry = false;
  TimingService service(config);
  load_example1(service, "e1");
  const Json response = expect_ok(service, req({{"verb", Json("analyze")},
                                                {"circuit", Json("e1")},
                                                {"cost", Json(true)}}));
  const Json& cost = response.get("cost");
  ASSERT_TRUE(cost.is_object()) << response.dump();
  EXPECT_EQ(cost.long_or("cpu_us", -1), 0);
  EXPECT_EQ(cost.long_or("relaxations", -1), 0);
  EXPECT_EQ(cost.long_or("solves", -1), 0);
}

}  // namespace
}  // namespace mintc::serve
