// AuditLog: JSONL rendering, append/flush accounting, size rotation to
// "<path>.1", and the service integration (every handled request becomes
// exactly one line, with stage times that follow the request's shape).
#include "serve/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/json.h"
#include "serve/service.h"

namespace mintc::serve {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  return path;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

TEST(ServeAudit, JsonLineGolden) {
  RequestRecord r;
  r.t_seconds = 1.5;
  r.trace = "00000000deadbeef";
  r.verb = "analyze";
  r.circuit = "e1";
  r.ok = true;
  r.cached = false;
  r.wall_us = 321.2;
  r.stages = {2.25, 0.0, 1.0, 290.0, 17.5, 9.99};
  r.cpu_us = 300;
  r.relaxations = 4096;
  r.sweeps = 12;
  r.solves = 2;
  // Stages round down to 0.1us (2.25 -> 2.2, 9.99 -> 9.9).
  EXPECT_EQ(audit_json_line(r),
            "{\"t\": 1.500, \"trace\": \"00000000deadbeef\", \"verb\": \"analyze\", "
            "\"circuit\": \"e1\", \"ok\": true, \"cached\": false, \"us\": 321.2, "
            "\"stages\": {\"parse_request\": 2.2, \"lock_wait\": 0.0, \"lookup\": 1.0, "
            "\"work\": 290.0, \"render\": 17.5, \"encode_frame\": 9.9}, "
            "\"cpu_us\": 300, \"relaxations\": 4096, \"sweeps\": 12, \"solves\": 2}");
}

TEST(ServeAudit, JsonLineRoundTripsTheStages) {
  RequestRecord r;
  r.verb = "analyze";
  r.wall_us = 400.0;
  r.stages = {1.5, 0.5, 3.0, 250.5, 40.0, 7.5};  // exact in binary and in tenths
  const Expected<Json> parsed = parse_json(audit_json_line(r));
  ASSERT_TRUE(parsed);
  const Json& stages = parsed->get("stages");
  ASSERT_EQ(stages.size(), r.stages.named().size());
  for (const auto& [name, us] : r.stages.named()) {
    EXPECT_EQ(stages.get(name).as_number(-1.0), us) << name;
  }
}

TEST(ServeAudit, LinesParseAsJsonAndEscapeContent) {
  RequestRecord r;
  r.verb = "load";
  r.circuit = "we\"ird\\key";
  const std::string line = audit_json_line(r);
  const Expected<Json> parsed = parse_json(line);
  ASSERT_TRUE(parsed) << line;
  EXPECT_EQ(parsed->get("circuit").as_string(), "we\"ird\\key");
  EXPECT_FALSE(parsed->get("ok").as_bool(true));
  EXPECT_EQ(parsed->get("relaxations").as_long(-1), 0);
}

TEST(ServeAudit, AppendWritesOneFlushedLinePerRecord) {
  const std::string path = temp_path("audit_append.jsonl");
  AuditLog log(path, 1u << 20);
  RequestRecord r;
  r.verb = "analyze";
  for (int i = 0; i < 5; ++i) {
    r.t_seconds = i;
    log.append(r);  // flushed per record: readable without closing the log
  }
  EXPECT_EQ(log.written(), 5);
  EXPECT_EQ(log.rotations(), 0);
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 5u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(parse_json(line)) << line;
  }
}

TEST(ServeAudit, RotatesAtTheSizeCapKeepingOnePredecessor) {
  const std::string path = temp_path("audit_rotate.jsonl");
  // 4096 is the clamp floor; each record is ~150 bytes, so ~100 records
  // force several rotations.
  AuditLog log(path, 1);  // clamped up to 4096
  RequestRecord r;
  r.verb = "analyze";
  r.circuit = "rotating";
  for (int i = 0; i < 100; ++i) {
    r.t_seconds = i;
    log.append(r);
  }
  EXPECT_EQ(log.written(), 100);
  EXPECT_GE(log.rotations(), 1);
  EXPECT_TRUE(file_exists(path));
  EXPECT_TRUE(file_exists(path + ".1"));
  // Bounded disk: active + one predecessor, both under ~1x the cap plus one
  // record of slack.
  for (const std::string& p : {path, path + ".1"}) {
    std::ifstream in(p, std::ios::ate | std::ios::binary);
    EXPECT_LE(in.tellg(), static_cast<std::streamoff>(4096 + 256)) << p;
  }
  // Every surviving line is intact JSON — rotation never tears a record.
  for (const std::string& line : read_lines(path)) {
    EXPECT_TRUE(parse_json(line)) << line;
  }
}

TEST(ServeAudit, ResumesSizeAccountingAcrossReopen) {
  const std::string path = temp_path("audit_resume.jsonl");
  RequestRecord r;
  r.verb = "analyze";
  {
    AuditLog log(path, 4096);
    for (int i = 0; i < 10; ++i) log.append(r);
  }
  const size_t before = read_lines(path).size();
  AuditLog log(path, 4096);  // same file: appends, does not truncate
  log.append(r);
  EXPECT_EQ(read_lines(path).size(), before + 1);
}

TEST(ServeAudit, ServiceWritesOneRecordPerHandledRequest) {
  const std::string path = temp_path("audit_service.jsonl");
  ServiceConfig config;
  config.audit_path = path;
  TimingService service(config);
  ASSERT_NE(service.audit(), nullptr);

  Json load = Json::object();
  load.set("verb", Json("load"));
  load.set("circuit", Json("e1"));
  load.set("builtin", Json("example1"));
  Json analyze = Json::object();
  analyze.set("verb", Json("analyze"));
  analyze.set("circuit", Json("e1"));
  Json bad = Json::object();
  bad.set("verb", Json("nope"));

  service.handle(load);
  service.handle(analyze);
  service.handle(analyze);  // cached
  service.handle(bad);      // errors are audited too
  EXPECT_EQ(service.audit()->written(), 4);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);
  const Expected<Json> first_analyze = parse_json(lines[1]);
  ASSERT_TRUE(first_analyze);
  EXPECT_EQ(first_analyze->get("verb").as_string(), "analyze");
  EXPECT_TRUE(first_analyze->get("ok").as_bool(false));
  EXPECT_FALSE(first_analyze->get("cached").as_bool(true));
  EXPECT_GT(first_analyze->get("relaxations").as_long(0), 0);
  const Expected<Json> hit = parse_json(lines[2]);
  ASSERT_TRUE(hit);
  EXPECT_TRUE(hit->get("cached").as_bool(false));
  EXPECT_EQ(hit->get("relaxations").as_long(-1), 0);
  const Expected<Json> err = parse_json(lines[3]);
  ASSERT_TRUE(err);
  EXPECT_FALSE(err->get("ok").as_bool(true));
}

// The early rejections — a frame that is not JSON, a request with a
// malformed trace — complete a record like any dispatched request: counted,
// timed, audited and ranked.
TEST(ServeAudit, EveryAnsweredFrameIsAuditedAndTimed) {
  const std::string path = temp_path("audit_every_frame.jsonl");
  ServiceConfig config;
  config.audit_path = path;
  TimingService service(config);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  const obs::Counter& requests = registry.counter("serve.requests");
  const obs::Histogram& latency =
      registry.histogram("serve.latency_us", {}, obs::latency_buckets_us());
  const long requests_before = requests.value();
  const long latency_before = latency.count();

  const std::vector<std::string> frames = {
      "not json",
      R"({"verb": "analyze", "circuit": "e1", "trace": "xyz"})",
      R"({"verb": "load", "circuit": "e1", "builtin": "example1"})",
      R"({"verb": "analyze", "circuit": "e1"})",
      R"({"verb": "analyze", "circuit": "e1"})",
      R"({"verb": "report", "circuit": "e1"})",
      R"({"verb": "min", "circuit": "e1"})",
      R"({"verb": "stats"})",
      R"({"verb": "nope"})",
      R"({"verb": "analyze", "circuit": "ghost"})",
  };
  for (const std::string& frame : frames) service.handle_line(frame);

  const long answered = static_cast<long>(frames.size());
  EXPECT_EQ(requests.value() - requests_before, answered);
  EXPECT_EQ(latency.count() - latency_before, answered);
  EXPECT_EQ(service.audit()->written(), answered);
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), frames.size());

  // Every frame is in the slow table, once each.
  ASSERT_LT(frames.size(), TimingService::kSlowTopK);
  std::vector<std::string> ranked;
  for (const RequestRecord& r : service.slow_requests()) {
    ranked.push_back(r.verb + (r.ok ? ":ok" : ":error"));
  }
  std::vector<std::string> expected = {":error",      "analyze:error", "load:ok",
                                       "analyze:ok",  "analyze:ok",    "report:ok",
                                       "min:ok",      "stats:ok",      "nope:error",
                                       "analyze:error"};
  std::sort(ranked.begin(), ranked.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ranked, expected);
}

// Each request shape leaves its own pattern of stage times: a miss works
// and renders, a hit only looks up, a write never renders, and a frame that
// does not parse only parses and encodes. The audit line carries the same
// stages.
TEST(ServeAudit, StageTimesFollowTheRequestShape) {
  const std::string path = temp_path("audit_stages.jsonl");
  ServiceConfig config;
  config.audit_path = path;
  TimingService service(config);
  const std::vector<std::string> frames = {
      R"({"verb": "load", "circuit": "e1", "builtin": "example1"})",
      R"({"verb": "analyze", "circuit": "e1"})",
      R"({"verb": "analyze", "circuit": "e1"})",
      R"({"verb": "edit_batch", "circuit": "e1", "edits": [)"
      R"({"op": "set_path_delay", "path": 0, "delay": 55.0}]})",
      "not json",
  };
  for (const std::string& frame : frames) service.handle_line(frame);

  // Every record's stages are non-negative and sum to at most its wall time
  // (up to the rounding of adding the stage doubles: a parse failure's two
  // stages tile its whole window).
  std::map<std::string, RequestRecord> by_shape;
  for (const RequestRecord& r : service.slow_requests()) {
    double sum = 0.0;
    for (const auto& [name, us] : r.stages.named()) {
      EXPECT_GE(us, 0.0) << r.verb << " " << name;
      sum += us;
    }
    EXPECT_LE(sum, r.wall_us + 1e-9) << r.verb;
    by_shape[r.verb + (r.cached ? ":hit" : "")] = r;
  }
  ASSERT_EQ(by_shape.size(), frames.size());

  const StageTimes& miss = by_shape.at("analyze").stages;
  EXPECT_GT(miss.parse_request, 0.0);
  EXPECT_GT(miss.work, 0.0);
  EXPECT_GT(miss.render, 0.0);
  EXPECT_GT(miss.encode_frame, 0.0);

  const StageTimes& hit = by_shape.at("analyze:hit").stages;
  EXPECT_GT(hit.lookup, 0.0);
  EXPECT_EQ(hit.work, 0.0);
  EXPECT_EQ(hit.render, 0.0);

  const StageTimes& edit = by_shape.at("edit_batch").stages;
  EXPECT_TRUE(by_shape.at("edit_batch").ok);
  EXPECT_GT(edit.work, 0.0);
  EXPECT_EQ(edit.lookup, 0.0);
  EXPECT_EQ(edit.render, 0.0);

  const StageTimes& bad = by_shape.at("").stages;
  EXPECT_GT(bad.parse_request, 0.0);
  EXPECT_EQ(bad.lock_wait, 0.0);
  EXPECT_EQ(bad.lookup, 0.0);
  EXPECT_EQ(bad.work, 0.0);
  EXPECT_EQ(bad.render, 0.0);
  EXPECT_GT(bad.encode_frame, 0.0);

  // The audit lines: a "stages" object with all six stages, each
  // non-negative, summing to at most the line's "us".
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), frames.size());
  for (const std::string& line : lines) {
    const Expected<Json> parsed = parse_json(line);
    ASSERT_TRUE(parsed) << line;
    const Json& stages = parsed->get("stages");
    ASSERT_EQ(stages.size(), 6u) << line;
    double sum = 0.0;
    for (const auto& [name, value] : stages.fields()) {
      EXPECT_GE(value.as_number(-1.0), 0.0) << line;
      sum += value.as_number();
    }
    EXPECT_LE(sum, parsed->get("us").as_number() + 1e-9) << line;
  }
}

}  // namespace
}  // namespace mintc::serve
