// TimingService verb tests: the transport-free protocol core.
//
// Everything goes through handle()/handle_line() — the same entry points the
// socket server uses — so these tests cover request decoding, session-pool
// behavior, cache correctness and the error envelope in one place.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/fuzzer.h"
#include "circuits/appendix_fig1.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/constraints.h"
#include "opt/graph_solver.h"
#include "parser/lct.h"
#include "parser/lcs.h"
#include "sta/analysis.h"

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

Json expect_error(TimingService& service, const Json& request, const std::string& kind) {
  const Json response = service.handle(request);
  EXPECT_FALSE(response.get("ok").as_bool(true)) << response.dump();
  EXPECT_EQ(response.get("error").get("kind").as_string(), kind) << response.dump();
  return response;
}

ClockSchedule schedule_of(const Json& s) {
  ClockSchedule schedule;
  schedule.cycle = s.num_or("cycle", 0.0);
  for (const Json& v : s.get("start").items()) schedule.start.push_back(v.as_number());
  for (const Json& v : s.get("width").items()) schedule.width.push_back(v.as_number());
  return schedule;
}

Json load_example1(TimingService& service, const std::string& key) {
  return expect_ok(service,
                   req({{"verb", Json("load")}, {"circuit", Json(key)},
                        {"builtin", Json("example1")}}));
}

TEST(ServeService, LoadBuiltinReportsShapeAndOptimum) {
  TimingService service;
  const Json r = load_example1(service, "e1").get("result");
  EXPECT_EQ(r.get("elements").as_long(0), 4);
  EXPECT_EQ(r.get("paths").as_long(0), 4);
  EXPECT_EQ(r.get("phases").as_long(0), 2);
  EXPECT_EQ(r.get("generation").as_long(-1), 0);
  EXPECT_EQ(r.get("fingerprint").as_string().size(), 16u);
  // PR 1 ground truth: example1's minimum cycle time is 110.
  EXPECT_DOUBLE_EQ(r.get("min_cycle").as_number(), 110.0);
  EXPECT_DOUBLE_EQ(r.get("schedule").get("cycle").as_number(), 110.0);
}

TEST(ServeService, AnalyzeIsBitIdenticalToDirectCheckSchedule) {
  // example1, and the paper's GaAs datapath at its MLP optimum (a zero-gain
  // critical loop, where the solve stops at the eps deadband): both must
  // reproduce check_schedule to the last bit.
  struct Input {
    const char* builtin;
    Circuit circuit;
  };
  const Input inputs[] = {{"example1", circuits::example1()},
                          {"gaas", circuits::gaas_datapath()}};
  for (const Input& in : inputs) {
    TimingService service;
    const Json loaded = expect_ok(service, req({{"verb", Json("load")},
                                                {"circuit", Json("c")},
                                                {"builtin", Json(in.builtin)}}))
                            .get("result");
    const Json analyzed = expect_ok(service, req({{"verb", Json("analyze")},
                                                  {"circuit", Json("c")},
                                                  {"detail", Json(true)}}))
                              .get("result");

    ClockSchedule schedule;
    schedule.cycle = loaded.get("schedule").num_or("cycle", 0.0);
    for (const Json& v : loaded.get("schedule").get("start").items()) {
      schedule.start.push_back(v.as_number());
    }
    for (const Json& v : loaded.get("schedule").get("width").items()) {
      schedule.width.push_back(v.as_number());
    }
    sta::AnalysisOptions options;
    options.check_hold = true;
    const sta::TimingReport direct = sta::check_schedule(in.circuit, schedule, options);

    EXPECT_EQ(analyzed.get("feasible").as_bool(!direct.feasible), direct.feasible)
        << in.builtin;
    EXPECT_EQ(analyzed.num_or("worst_setup_slack", direct.worst_setup_slack + 1),
              direct.worst_setup_slack)
        << in.builtin;
    const Json& elements = analyzed.get("elements");
    ASSERT_EQ(elements.size(), direct.elements.size()) << in.builtin;
    for (size_t i = 0; i < direct.elements.size(); ++i) {
      EXPECT_EQ(elements.at(i).num_or("departure", direct.elements[i].departure + 1),
                direct.elements[i].departure)
          << in.builtin << " element " << i;
    }
  }
}

/// The `detail` rows built as a Json tree and dumped, as svcbench's
/// expected_payload builds them: one object per element, the non-finite
/// arrival and hold slack left out.
std::string rows_as_tree(const sta::TimingReport& report, const Circuit& circuit) {
  Json elements = Json::array();
  for (size_t i = 0; i < report.elements.size(); ++i) {
    const sta::ElementTiming& et = report.elements[i];
    Json e = Json::object();
    e.set("name", Json(circuit.element(static_cast<int>(i)).name));
    e.set("departure", Json(et.departure));
    if (std::isfinite(et.arrival)) e.set("arrival", Json(et.arrival));
    e.set("setup_slack", Json(et.setup_slack));
    if (std::isfinite(et.hold_slack)) e.set("hold_slack", Json(et.hold_slack));
    elements.push(std::move(e));
  }
  return elements.dump();
}

TEST(ServeService, DetailRowsAreTheBytesOfTheirJsonTree) {
  struct Input {
    std::string what;
    Json load;  // the load request's source fields
    Circuit circuit;
  };
  std::vector<Input> inputs;
  const std::pair<const char*, Circuit> builtins[] = {
      {"example1", circuits::example1()},
      {"example2", circuits::example2()},
      {"gaas", circuits::gaas_datapath()},
      {"appendix", circuits::appendix_fig1()}};
  for (const auto& [name, circuit] : builtins) {
    inputs.push_back({name, req({{"builtin", Json(name)}}), circuit});
  }
  circuits::SyntheticParams params;
  params.num_phases = 3;
  params.num_stages = 6;
  const std::string synthetic = parser::write_circuit(circuits::synthetic_circuit(params, 21));
  // Names that need JSON escapes: a quote and backslashes, control bytes,
  // and UTF-8, which passes through as it is.
  const std::string odd =
      "circuit odd\nphases 2\n"
      "latch q\"a\\\"b\" phase=1 setup=1 dq=2\n"
      "latch back\\slash phase=2 setup=1 dq=2\n"
      "latch ctl\x01\x1f phase=1 setup=1 dq=2\n"
      "latch \xc3\xa9t\xc3\xa9 phase=2 setup=1 dq=2\n"
      "path q\"a\\\"b\" back\\slash delay=7.3\n"
      "path back\\slash ctl\x01\x1f delay=0.1\n"
      "path ctl\x01\x1f \xc3\xa9t\xc3\xa9 delay=12.25\n"
      "path \xc3\xa9t\xc3\xa9 q\"a\\\"b\" delay=3.3\n";
  for (const auto& [what, text] : {std::pair{"synthetic", synthetic}, std::pair{"odd", odd}}) {
    Expected<Circuit> circuit = parser::parse_circuit(text);
    ASSERT_TRUE(circuit) << what;
    inputs.push_back({what, req({{"text", Json(text)}}), std::move(*circuit)});
  }
  ASSERT_EQ(inputs.back().circuit.element(0).name, "q\"a\\\"b\"");

  int without_arrival_or_hold = 0;
  for (const Input& in : inputs) {
    TimingService service;
    Json load = in.load;
    load.set("verb", Json("load"));
    load.set("circuit", Json("c"));
    const Json loaded = expect_ok(service, load).get("result");
    sta::AnalysisOptions options;
    options.check_hold = true;
    const sta::TimingReport direct =
        sta::check_schedule(in.circuit, schedule_of(loaded.get("schedule")), options);
    for (const sta::ElementTiming& et : direct.elements) {
      if (!std::isfinite(et.arrival) && !std::isfinite(et.hold_slack)) ++without_arrival_or_hold;
    }

    const std::string frame = service.handle_line(
        req({{"verb", Json("analyze")}, {"circuit", Json("c")}, {"detail", Json(true)}})
            .dump());
    const std::string rows = "\"elements\":" + rows_as_tree(direct, in.circuit) + ",";
    EXPECT_NE(frame.find(rows), std::string::npos)
        << in.what << "\nframe: " << frame.substr(0, 600) << "\nwant: " << rows.substr(0, 600);
  }
  EXPECT_GT(without_arrival_or_hold, 0);  // the appendix circuit's primary input
}

TEST(ServeService, SecondAnalyzeIsCachedAndIdentical) {
  TimingService service;
  load_example1(service, "e1");
  const Json request =
      req({{"verb", Json("analyze")}, {"circuit", Json("e1")}, {"detail", Json(true)}});
  const Json first = service.handle(request);
  const Json second = service.handle(request);
  EXPECT_FALSE(first.get("cached").as_bool(true));
  EXPECT_TRUE(second.get("cached").as_bool(false));
  EXPECT_EQ(first.get("result").dump(), second.get("result").dump());
  EXPECT_GE(service.cache().stats().hits, 1);
}

TEST(ServeService, EditInvalidatesCacheAndChangesFingerprint) {
  TimingService service;
  const std::string fp0 =
      load_example1(service, "e1").get("result").get("fingerprint").as_string();
  const Json analyze = req({{"verb", Json("analyze")}, {"circuit", Json("e1")}});
  service.handle(analyze);

  Json edit = req({{"op", Json("set_path_delay")}, {"path", Json(0L)}, {"delay", Json(55.0)}});
  Json edits = Json::array();
  edits.push(std::move(edit));
  const Json r = expect_ok(service, req({{"verb", Json("edit_batch")},
                                         {"circuit", Json("e1")},
                                         {"edits", std::move(edits)}}))
                     .get("result");
  EXPECT_EQ(r.get("applied").as_long(0), 1);
  EXPECT_EQ(r.get("generation").as_long(0), 1);
  EXPECT_NE(r.get("fingerprint").as_string(), fp0);

  // The re-analysis sees the new delay, not the cached pre-edit result.
  const Json after = service.handle(analyze);
  EXPECT_FALSE(after.get("cached").as_bool(true));
}

TEST(ServeService, EditBatchIsAtomicUnderRollback) {
  TimingService service;
  const std::string fp0 =
      load_example1(service, "e1").get("result").get("fingerprint").as_string();

  // First edit is valid, second references a path that does not exist: the
  // whole batch must roll back.
  Json edits = Json::array();
  edits.push(req({{"op", Json("set_path_delay")}, {"path", Json(0L)}, {"delay", Json(55.0)}}));
  edits.push(req({{"op", Json("set_path_delay")}, {"path", Json(99L)}, {"delay", Json(1.0)}}));
  const Json response = service.handle(req({{"verb", Json("edit_batch")},
                                            {"circuit", Json("e1")},
                                            {"edits", std::move(edits)}}));
  EXPECT_FALSE(response.get("ok").as_bool(true));
  EXPECT_NE(response.get("error").get("message").as_string().find("edit 1"),
            std::string::npos)
      << response.dump();

  // State (and therefore the fingerprint) is exactly the pre-batch one.
  Json probe = Json::array();
  probe.push(req({{"op", Json("set_path_label")}, {"path", Json(0L)}, {"label", Json("t")}}));
  const Json after = expect_ok(service, req({{"verb", Json("edit_batch")},
                                             {"circuit", Json("e1")},
                                             {"edits", std::move(probe)}}))
                         .get("result");
  const Json undone = expect_ok(service, req({{"verb", Json("undo")},
                                              {"circuit", Json("e1")},
                                              {"to", Json(after.get("mark"))}}))
                          .get("result");
  EXPECT_EQ(undone.get("fingerprint").as_string(), fp0);
}

TEST(ServeService, InvalidEditOpsAreRejectedWithoutAborting) {
  TimingService service;
  load_example1(service, "e1");
  const auto reject = [&](Json edit) {
    Json edits = Json::array();
    edits.push(std::move(edit));
    const Json response = service.handle(req({{"verb", Json("edit_batch")},
                                              {"circuit", Json("e1")},
                                              {"edits", std::move(edits)}}));
    EXPECT_FALSE(response.get("ok").as_bool(true)) << response.dump();
  };
  reject(req({{"op", Json("set_path_delay")}, {"path", Json(0L)}, {"delay", Json(-1.0)}}));
  reject(req({{"op", Json("set_element_dq")}, {"element", Json(-1L)}, {"value", Json(1.0)}}));
  reject(req({{"op", Json("set_schedule")}, {"schedule", Json("not an lcs file")}}));
  reject(req({{"op", Json("scale_schedule")}, {"factor", Json(0.0)}}));
  reject(req({{"op", Json("no_such_op")}}));
  reject(Json(7.0));  // not even an object
}

TEST(ServeService, UndoRewindsGenerationsAndContent) {
  TimingService service;
  const std::string fp0 =
      load_example1(service, "e1").get("result").get("fingerprint").as_string();
  for (int i = 0; i < 3; ++i) {
    Json edits = Json::array();
    edits.push(req({{"op", Json("set_path_delay")},
                    {"path", Json(0L)},
                    {"delay", Json(50.0 + i)}}));
    expect_ok(service, req({{"verb", Json("edit_batch")},
                            {"circuit", Json("e1")},
                            {"edits", std::move(edits)}}));
  }
  const Json r = expect_ok(service, req({{"verb", Json("undo")},
                                         {"circuit", Json("e1")},
                                         {"to", Json(0L)}}))
                     .get("result");
  EXPECT_EQ(r.get("fingerprint").as_string(), fp0);
  // Undo is itself a mutation: the generation moves FORWARD (monotone), so
  // stale cache entries can never be revived by generation collision.
  EXPECT_GT(r.get("generation").as_long(0), 3);
}

Json edit_batch_req(const std::string& key, Json edits) {
  return req({{"verb", Json("edit_batch")}, {"circuit", Json(key)}, {"edits", std::move(edits)}});
}

Json undo_req(const std::string& key) {
  return req({{"verb", Json("undo")}, {"circuit", Json(key)}});
}

Json undo_to_req(const std::string& key, long mark) {
  return req({{"verb", Json("undo")}, {"circuit", Json(key)}, {"to", Json(mark)}});
}

// example1's L1 has Δ_DC = Δ_DQ = 10. The first edit breaks Δ_DQ >= Δ_DC,
// the second restores it: the batch is valid, the state between its two
// edits is not.
Json split_validity_batch() {
  Json edits = Json::array();
  edits.push(req({{"op", Json("set_element_setup")}, {"element", Json(0L)},
                  {"value", Json(15.0)}}));
  edits.push(req({{"op", Json("set_element_dq")}, {"element", Json(0L)},
                  {"value", Json(20.0)}}));
  return edits;
}

TEST(ServeService, UndoRewindsAWholeBatchToTheLoadedAnalysisSession) {
  TimingService service;
  const std::string fp0 =
      load_example1(service, "e1").get("result").get("fingerprint").as_string();
  expect_ok(service, edit_batch_req("e1", split_validity_batch()));
  const Json r = expect_ok(service, undo_req("e1")).get("result");
  EXPECT_EQ(r.get("mark").as_long(-1), 0);
  EXPECT_EQ(r.get("fingerprint").as_string(), fp0);
}

TEST(ServeService, BatchAfterUndoSucceedsOnTheValidatedAnalysisSession) {
  TimingService service;
  load_example1(service, "e1");
  expect_ok(service, edit_batch_req("e1", split_validity_batch()));
  expect_ok(service, undo_req("e1"));
  Json edits = Json::array();
  edits.push(req({{"op", Json("set_path_delay")}, {"path", Json(0L)}, {"delay", Json(25.0)}}));
  const Json r = expect_ok(service, edit_batch_req("e1", std::move(edits))).get("result");
  EXPECT_EQ(r.get("mark").as_long(-1), 0);
}

TEST(ServeService, UndoIntoTheMiddleOfABatchIsRejectedAnalysisSessionUnchanged) {
  TimingService service;
  const std::string fp0 =
      load_example1(service, "e1").get("result").get("fingerprint").as_string();
  const std::string fp1 = expect_ok(service, edit_batch_req("e1", split_validity_batch()))
                              .get("result")
                              .get("fingerprint")
                              .as_string();
  expect_error(service, undo_to_req("e1", 1), "invalid_argument");
  expect_error(service, undo_to_req("e1", 3), "invalid_argument");
  expect_error(service, undo_to_req("e1", -1), "invalid_argument");
  // The rejected rewinds moved nothing; the current mark is a valid no-op
  // target and the batch's own mark rewinds it.
  EXPECT_EQ(expect_ok(service, undo_to_req("e1", 2)).get("result").get("fingerprint").as_string(),
            fp1);
  EXPECT_EQ(expect_ok(service, undo_to_req("e1", 0)).get("result").get("fingerprint").as_string(),
            fp0);
  expect_error(service, undo_req("e1"), "invalid_argument");  // nothing left to rewind
}

// A session keeps its last kUndoCommits commits; older ones are forgotten
// with their undo records. `to` a forgotten mark and `steps` past the kept
// commits are rejected, and the oldest kept mark still rewinds exactly.
TEST(ServeService, UndoReachesBackTheLastCommitsOnly) {
  TimingService service;
  std::vector<std::string> fingerprints = {
      load_example1(service, "e1").get("result").get("fingerprint").as_string()};
  for (size_t i = 0; i < TimingService::kUndoCommits + 2; ++i) {
    Json edits = Json::array();
    edits.push(req({{"op", Json("set_path_delay")},
                    {"path", Json(0L)},
                    {"delay", Json(50.0 + 0.01 * static_cast<double>(i + 1))}}));
    const Json r = expect_ok(service, edit_batch_req("e1", std::move(edits))).get("result");
    ASSERT_EQ(r.get("mark").as_long(-1), static_cast<long>(i));
    fingerprints.push_back(r.get("fingerprint").as_string());  // the content at mark i + 1
  }
  expect_error(service, undo_to_req("e1", 0), "invalid_argument");
  expect_error(service, undo_to_req("e1", 1), "invalid_argument");
  const long too_many = static_cast<long>(TimingService::kUndoCommits) + 1;
  expect_error(service,
               req({{"verb", Json("undo")}, {"circuit", Json("e1")}, {"steps", Json(too_many)}}),
               "invalid_argument");
  const Json r = expect_ok(service, undo_to_req("e1", 2)).get("result");
  EXPECT_EQ(r.get("mark").as_long(-1), 2);
  EXPECT_EQ(r.get("fingerprint").as_string(), fingerprints[2]);
  expect_error(service, undo_req("e1"), "invalid_argument");  // nothing kept before it
}

TEST(ServeService, UndoAfterMinApplyRestoresTheAnalysisSessionSchedule) {
  TimingService service;
  const std::string fp0 =
      load_example1(service, "e1").get("result").get("fingerprint").as_string();
  // Lengthen block Lc and stretch the clock: two undo records, one batch.
  Json edits = Json::array();
  edits.push(req({{"op", Json("set_path_delay")}, {"path", Json(2L)}, {"delay", Json(70.0)}}));
  edits.push(req({{"op", Json("scale_schedule")}, {"factor", Json(1.5)}}));
  const std::string fp1 =
      expect_ok(service, edit_batch_req("e1", std::move(edits))).get("result").get("fingerprint")
          .as_string();
  const Json min_apply =
      req({{"verb", Json("min")}, {"circuit", Json("e1")}, {"apply", Json(true)}});
  const Json applied = expect_ok(service, min_apply).get("result");
  EXPECT_DOUBLE_EQ(applied.get("min_cycle").as_number(), 115.0);  // (150 + 80) / 2
  EXPECT_EQ(applied.get("mark").as_long(-1), 2);
  const Json analyze = req({{"verb", Json("analyze")}, {"circuit", Json("e1")}});
  EXPECT_NE(expect_ok(service, analyze).get("result").get("fingerprint").as_string(), fp1);

  // `steps` undoes the schedule swap alone...
  const Json r = expect_ok(service, undo_req("e1")).get("result");
  EXPECT_EQ(r.get("mark").as_long(-1), 2);
  EXPECT_EQ(r.get("fingerprint").as_string(), fp1);
  EXPECT_EQ(expect_ok(service, analyze).get("result").get("fingerprint").as_string(), fp1);
  // ...and so does `to` the mark a min apply returned.
  const long mark = expect_ok(service, min_apply).get("result").get("mark").as_long(-1);
  EXPECT_EQ(expect_ok(service, undo_to_req("e1", mark)).get("result").get("fingerprint")
                .as_string(),
            fp1);
  // One more step rewinds the two-record batch as a whole.
  const Json back = expect_ok(service, undo_req("e1")).get("result");
  EXPECT_EQ(back.get("mark").as_long(-1), 0);
  EXPECT_EQ(back.get("fingerprint").as_string(), fp0);
}

std::string problems_text(const std::vector<std::string>& problems) {
  std::string msg;
  for (const std::string& p : problems) msg += (msg.empty() ? "" : "; ") + p;
  return msg;
}

// edit_batch re-validates only what a batch touched. Drive random batches
// through the service and the same edits through a mirror AnalysisSession:
// a batch must be accepted exactly when the mirror's whole-circuit
// validate() is clean, and a rejection must list the same problems.
TEST(ServeService, BatchValidationSessionEquivalence) {
  struct Input {
    const char* builtin;
    Circuit circuit;
  };
  const Input inputs[] = {{"example1", circuits::example1()},
                          {"gaas", circuits::gaas_datapath()}};
  for (const Input& in : inputs) {
    TimingService service;
    const Json loaded = expect_ok(service, req({{"verb", Json("load")},
                                                {"circuit", Json("c")},
                                                {"builtin", Json(in.builtin)}}))
                            .get("result");
    sta::AnalysisSession mirror(in.circuit, schedule_of(loaded.get("schedule")));
    ASSERT_EQ(obs::hash_hex(mirror.content_fingerprint()),
              loaded.get("fingerprint").as_string());
    std::vector<size_t> commits;
    int accepted = 0, rejected = 0;

    // `edits` were applied to the mirror from `mark` on; send them and
    // compare the verdict with the mirror's whole-circuit validate().
    const auto send = [&](Json edits, size_t mark, const std::string& what) {
      const std::vector<std::string> problems = mirror.circuit().validate();
      const Json response = service.handle(edit_batch_req("c", std::move(edits)));
      if (problems.empty()) {
        ++accepted;
        EXPECT_TRUE(response.get("ok").as_bool(false)) << what << ": " << response.dump();
        EXPECT_EQ(response.get("result").get("fingerprint").as_string(),
                  obs::hash_hex(mirror.content_fingerprint()))
            << what;
        if (mirror.mark() > mark) commits.push_back(mark);
      } else {
        ++rejected;
        EXPECT_FALSE(response.get("ok").as_bool(true)) << what;
        EXPECT_EQ(response.get("error").get("message").as_string(),
                  "batch leaves the circuit invalid: " + problems_text(problems))
            << what;
        mirror.undo_to(mark);
      }
    };
    const auto element_op = [&](const char* op, int i, double value) {
      return req({{"op", Json(op)}, {"element", Json(static_cast<long>(i))},
                  {"value", Json(value)}});
    };

    // The named cases first.
    const Circuit& c = mirror.circuit();
    size_t mark = mirror.mark();
    Json edits = Json::array();
    const double dq0 = c.element(0).dq;
    edits.push(element_op("set_element_setup", 0, dq0 + 5.0));
    mirror.set_element_setup(0, dq0 + 5.0);
    edits.push(element_op("set_element_dq", 0, dq0 + 10.0));
    mirror.set_element_dq(0, dq0 + 10.0);
    send(std::move(edits), mark, "break Δ_DQ >= Δ_DC, then restore it");

    mark = mirror.mark();
    edits = Json::array();
    edits.push(element_op("set_element_dq", 0, c.element(0).setup * 0.5));
    mirror.set_element_dq(0, c.element(0).setup * 0.5);
    send(std::move(edits), mark, "leave Δ_DQ < Δ_DC");

    mark = mirror.mark();
    edits = Json::array();
    edits.push(element_op("set_element_dq_min", 1, c.element(1).dq + 1.0));
    mirror.set_element_dq_min(1, c.element(1).dq + 1.0);
    send(std::move(edits), mark, "dq_min > dq");

    for (int i = 0; i < c.num_elements(); ++i) {
      if (c.element(i).is_latch()) continue;
      mark = mirror.mark();
      edits = Json::array();
      edits.push(element_op("set_element_setup", i, c.element(i).dq + 1.0));
      mirror.set_element_setup(i, c.element(i).dq + 1.0);
      send(std::move(edits), mark, "flip-flop setup above its clk-to-q");
      break;
    }

    mark = mirror.mark();
    edits = Json::array();
    edits.push(req({{"op", Json("derate")}, {"delay_scale", Json(1.1)},
                    {"min_scale", Json(0.9)}}));
    mirror.apply_derating(1.1, 0.9);
    edits.push(element_op("set_element_dq", 1, c.element(1).setup * 0.9));
    mirror.set_element_dq(1, c.element(1).setup * 0.9);
    send(std::move(edits), mark, "derate, then break an element");

    mark = mirror.mark();
    edits = Json::array();
    edits.push(element_op("set_element_dq", 1, c.element(1).setup * 0.5));
    mirror.set_element_dq(1, c.element(1).setup * 0.5);
    edits.push(req({{"op", Json("remove_element")}, {"element", Json(0L)}}));
    mirror.remove_element(0);
    send(std::move(edits), mark, "break an element, then remove another");

    mark = mirror.mark();
    edits = Json::array();
    edits.push(req({{"op", Json("remove_path")}, {"path", Json(0L)}}));
    mirror.remove_path(0);
    send(std::move(edits), mark, "remove a path");

    // Then random batches, with whole-batch undos in between.
    std::mt19937_64 rng(11);
    const auto uniform = [&](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const auto pick = [&](int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng); };
    for (int batch = 0; batch < 300; ++batch) {
      if (!commits.empty() && (pick(6) == 0 || c.num_paths() == 0)) {
        const Json r = expect_ok(service, undo_req("c")).get("result");
        mirror.undo_to(commits.back());
        commits.pop_back();
        EXPECT_EQ(r.get("fingerprint").as_string(), obs::hash_hex(mirror.content_fingerprint()));
        continue;
      }
      mark = mirror.mark();
      edits = Json::array();
      const int n = 1 + pick(4);
      for (int k = 0; k < n && c.num_paths() > 0; ++k) {
        const int p = pick(c.num_paths());
        const int i = pick(c.num_elements());
        const CombPath& path = c.path(p);
        const Element& e = c.element(i);
        switch (pick(12)) {
          case 0: {
            const double d = path.min_delay + uniform(0.0, 2.0) * path.delay;
            edits.push(req({{"op", Json("set_path_delay")}, {"path", Json(static_cast<long>(p))},
                            {"delay", Json(d)}}));
            mirror.set_path_delay(p, d);
            break;
          }
          case 1: {
            const double m = uniform(0.0, 1.0) * path.delay;
            edits.push(req({{"op", Json("set_path_min_delay")},
                            {"path", Json(static_cast<long>(p))}, {"min", Json(m)}}));
            mirror.set_path_min_delay(p, m);
            break;
          }
          case 2: {
            const double d = uniform(0.5, 2.0) * path.delay;
            const double m = uniform(0.0, 1.0) * d;
            edits.push(req({{"op", Json("set_path_delays")}, {"path", Json(static_cast<long>(p))},
                            {"delay", Json(d)}, {"min", Json(m)}}));
            mirror.set_path_delays(p, d, m);
            break;
          }
          case 3: {
            const std::string label = "x" + std::to_string(pick(4));
            edits.push(req({{"op", Json("set_path_label")}, {"path", Json(static_cast<long>(p))},
                            {"label", Json(label)}}));
            mirror.set_path_label(p, label);
            break;
          }
          case 4: {
            const double v = e.setup * uniform(0.7, 1.5);
            edits.push(element_op("set_element_dq", i, v));
            mirror.set_element_dq(i, v);
            break;
          }
          case 5: {
            const double v = e.dq * uniform(0.5, 1.3);
            edits.push(element_op("set_element_setup", i, v));
            mirror.set_element_setup(i, v);
            break;
          }
          case 6: {  // negative values mean "track dq" on the wire
            const double v = pick(3) == 0 ? -2.0 : e.dq * uniform(0.5, 1.2);
            edits.push(element_op("set_element_dq_min", i, v));
            mirror.set_element_dq_min(i, v < 0.0 ? -1.0 : v);
            break;
          }
          case 7: {
            const double v = uniform(0.0, 1.0);
            edits.push(element_op("set_element_hold", i, v));
            mirror.set_element_hold(i, v);
            break;
          }
          case 8: {
            const double v = uniform(0.0, 0.5);
            edits.push(element_op("set_element_skew", i, v));
            mirror.set_element_skew(i, v);
            break;
          }
          case 9: {
            const double f = uniform(0.9, 1.2);
            edits.push(req({{"op", Json("scale_schedule")}, {"factor", Json(f)}}));
            mirror.set_schedule(mirror.schedule().scaled(f));
            break;
          }
          case 10:
            if (mirror.derating_allowed()) {
              const double ds = uniform(0.9, 1.2), ms = uniform(0.8, 1.0);
              edits.push(req({{"op", Json("derate")}, {"delay_scale", Json(ds)},
                              {"min_scale", Json(ms)}}));
              mirror.apply_derating(ds, ms);
            }
            break;
          default:
            if (pick(4) != 0) break;
            if (pick(2) == 0 && c.num_paths() > 2) {
              edits.push(req({{"op", Json("remove_path")}, {"path", Json(static_cast<long>(p))}}));
              mirror.remove_path(p);
            } else if (c.num_elements() > 3) {
              edits.push(req({{"op", Json("remove_element")},
                              {"element", Json(static_cast<long>(i))}}));
              mirror.remove_element(i);
            }
            break;
        }
      }
      send(std::move(edits), mark, std::string(in.builtin) + " batch " + std::to_string(batch));
    }
    EXPECT_GT(accepted, 20) << in.builtin;
    EXPECT_GT(rejected, 20) << in.builtin;
  }
}

/// The bytes of a detail analyze frame's "elements" value: from after its
/// key to the fingerprint that follows the rows.
std::string detail_rows_of(const std::string& frame) {
  const std::string key = "\"elements\":";
  const size_t begin = frame.find(key);
  const size_t end = frame.rfind(",\"fingerprint\":\"");
  if (begin == std::string::npos || end == std::string::npos || end < begin) return "";
  return frame.substr(begin + key.size(), end - begin - key.size());
}

/// The fingerprint a frame's answer names.
std::string fingerprint_of(const std::string& frame) {
  const std::string key = "\"fingerprint\":\"";
  const size_t at = frame.rfind(key);
  return at == std::string::npos ? "" : frame.substr(at + key.size(), 16);
}

/// Detail rows rendered and reused so far, service-wide.
std::pair<long, long> detail_row_counts() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  return {registry.counter("serve.detail_rows_rendered").value(),
          registry.counter("serve.detail_rows_reused").value()};
}

std::string detail_frame(TimingService& service, const std::string& key) {
  return service.handle_line(
      req({{"verb", Json("analyze")}, {"circuit", Json(key)}, {"detail", Json(true)}}).dump());
}

/// One service session and a mirror AnalysisSession driven through the same
/// edits; check() sends a detail analyze and compares its rows with a fresh
/// render of the mirror's state.
struct DetailWalk {
  explicit DetailWalk(ServiceConfig config = {}) : service(std::move(config)) {}

  TimingService service;
  std::optional<sta::AnalysisSession> mirror;
  std::vector<size_t> commits;  // the service's undo targets, as edit_batch tracks them
  std::string what;

  static sta::AnalysisOptions options() {
    sta::AnalysisOptions o;
    o.check_hold = true;
    return o;
  }

  /// Load `lct` as "c", with `lcs` as its schedule or, when empty, the
  /// optimum the service solves for. False when the service refuses it.
  bool load(const std::string& lct, const std::string& lcs = "") {
    Json request = req({{"verb", Json("load")}, {"circuit", Json("c")}, {"text", Json(lct)}});
    if (!lcs.empty()) request.set("schedule", Json(lcs));
    const Json r = service.handle(request);
    if (!r.get("ok").as_bool(false)) return false;
    Expected<Circuit> circuit = parser::parse_circuit(lct);  // as the service reads it
    if (!circuit) return false;
    mirror.emplace(std::move(*circuit), schedule_of(r.get("result").get("schedule")), options());
    EXPECT_EQ(obs::hash_hex(mirror->content_fingerprint()),
              r.get("result").get("fingerprint").as_string())
        << what;
    return true;
  }

  /// Send `edits`, applied to the mirror from `mark` on: the service takes
  /// them exactly when the mirror's circuit is valid.
  void batch(Json edits, size_t mark) {
    const bool valid = mirror->circuit().validate().empty();
    const Json r = service.handle(edit_batch_req("c", std::move(edits)));
    EXPECT_EQ(r.get("ok").as_bool(!valid), valid) << what << ": " << r.dump();
    if (!valid) {
      mirror->undo_to(mark);
    } else if (mirror->mark() > mark) {
      commits.push_back(mark);
    }
  }

  void undo_to_commit(size_t j) {
    expect_ok(service, undo_to_req("c", static_cast<long>(commits[j])));
    mirror->undo_to(commits[j]);
    commits.resize(j);
  }

  void undo_steps(size_t steps) {
    expect_ok(service, req({{"verb", Json("undo")}, {"circuit", Json("c")},
                            {"steps", Json(static_cast<long>(steps))}}));
    mirror->undo_to(commits[commits.size() - steps]);
    commits.resize(commits.size() - steps);
  }

  /// A detail analyze's rows are a fresh render of the state its
  /// fingerprint names: the mirror's. And the bytes of the previous answer,
  /// still held as a frame in flight would hold them, were not written
  /// again.
  void check(const std::string& step) {
    const std::string frame = detail_frame(service, "c");
    const sta::TimingReport fresh =
        sta::check_schedule(mirror->circuit(), mirror->schedule(), options());
    EXPECT_EQ(detail_rows_of(frame), rows_as_tree(fresh, mirror->circuit()))
        << what << ", " << step;
    EXPECT_EQ(fingerprint_of(frame), obs::hash_hex(mirror->content_fingerprint()))
        << what << ", " << step;
    if (held) {
      EXPECT_EQ(*held, held_bytes) << what << ", " << step;
    }
    if (service.config().cache_bytes == 0) return;
    // The service's cache key of a detail analyze: the content fingerprint,
    // the verb and params 1.
    held = service.cache().get(
        obs::Fnv1a().u64(mirror->content_fingerprint()).str("analyze").u64(1).digest());
    ASSERT_NE(held, nullptr) << what << ", " << step;
    held_bytes = *held;
  }

  ResultCache::Value held;  // the last answer's bytes, shared with the cache
  std::string held_bytes;   // and a copy of them
};

/// Whether two rows hold the same four values, bit for bit.
bool same_bits(const sta::ElementTiming& a, const sta::ElementTiming& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.departure) == bits(b.departure) && bits(a.arrival) == bits(b.arrival) &&
         bits(a.setup_slack) == bits(b.setup_slack) && bits(a.hold_slack) == bits(b.hold_slack);
}

Json element_edit(const char* op, int i, double value) {
  return req({{"op", Json(op)}, {"element", Json(static_cast<long>(i))}, {"value", Json(value)}});
}

Json path_edit(const char* op, int p) {
  return req({{"op", Json(op)}, {"path", Json(static_cast<long>(p))}});
}

// A detail analyze copies the rows whose four values kept their bits from
// the session's last detail answer and renders the rest. Walk every edit op,
// undo to a commit and undo by steps over fuzzed circuits, and after each
// step the rows must be what a fresh render of the same state writes.
TEST(ServeService, DetailRowsKeptAcrossEditsMatchAFreshRender) {
  {
    // "remove i, undo, remove j" keeps the element count and every row's
    // values, but renumbers the names: B1..B3 are alike, so without the
    // sessions's structure stamp the rows after removing B3 would be copied
    // from those after removing B1, names and all.
    DetailWalk walk;
    walk.what = "remove i, undo, remove j";
    ASSERT_TRUE(walk.load(
        "circuit fan\nphases 2\n"
        "latch A phase=1 setup=1 dq=2\n"
        "latch B1 phase=2 setup=1 dq=2\nlatch B2 phase=2 setup=1 dq=2\n"
        "latch B3 phase=2 setup=1 dq=2\n"
        "path A B1 delay=5\npath A B2 delay=5\npath A B3 delay=5\n"
        "path B1 A delay=4\npath B2 A delay=4\npath B3 A delay=4\n"));
    walk.check("loaded");
    Json edits = Json::array();
    edits.push(req({{"op", Json("remove_element")}, {"element", Json(1L)}}));
    size_t mark = walk.mirror->mark();
    walk.mirror->remove_element(1);
    walk.batch(std::move(edits), mark);
    const sta::TimingReport without_b1 =
        sta::check_schedule(walk.mirror->circuit(), walk.mirror->schedule(), walk.options());
    walk.check("remove B1");
    walk.undo_steps(1);
    edits = Json::array();
    edits.push(req({{"op", Json("remove_element")}, {"element", Json(3L)}}));
    mark = walk.mirror->mark();
    walk.mirror->remove_element(3);
    walk.batch(std::move(edits), mark);
    const sta::TimingReport without_b3 =
        sta::check_schedule(walk.mirror->circuit(), walk.mirror->schedule(), walk.options());
    // The case has its teeth: every row kept its values.
    ASSERT_EQ(without_b1.elements.size(), without_b3.elements.size());
    for (size_t i = 0; i < without_b1.elements.size(); ++i) {
      ASSERT_TRUE(same_bits(without_b1.elements[i], without_b3.elements[i])) << i;
    }
    walk.check("undo, remove B3");
  }
  {
    // Flip-flop F's arrival is (0 + (2 + 8)) + (-10) = +0.0. With setup and
    // skew +0.0 its setup slack is -0.0 - 0.0 = -0.0; with both -0.0 it is
    // -(-0.0) - 0.0 = +0.0. Only that slack's sign moves, so a row compare
    // by value instead of by bits would copy the stale "-0".
    DetailWalk walk;
    walk.what = "signed zero";
    ASSERT_TRUE(walk.load("circuit zeros\nphases 1\n"
                          "flipflop G phase=1 setup=0 cq=2\nflipflop F phase=1 setup=0 cq=2\n"
                          "path G F delay=8\npath F G delay=8\n",
                          "cycle 10\nphase 1 start=0 width=5\n"));
    const sta::TimingReport before =
        sta::check_schedule(walk.mirror->circuit(), walk.mirror->schedule(), walk.options());
    ASSERT_EQ(walk.mirror->circuit().element(1).name, "F");
    ASSERT_TRUE(before.elements[1].setup_slack == 0.0 &&
                std::signbit(before.elements[1].setup_slack));
    walk.check("setup slack -0");
    Json edits = Json::array();
    const size_t mark = walk.mirror->mark();
    for (const char* op : {"set_element_setup", "set_element_skew"}) {
      for (const double v : {1.0, -0.0}) {
        edits.push(element_edit(op, 1, v));
        if (op == std::string("set_element_setup")) {
          walk.mirror->set_element_setup(1, v);
        } else {
          walk.mirror->set_element_skew(1, v);
        }
      }
    }
    walk.batch(std::move(edits), mark);
    const sta::TimingReport after =
        sta::check_schedule(walk.mirror->circuit(), walk.mirror->schedule(), walk.options());
    ASSERT_TRUE(after.elements[1].setup_slack == 0.0 &&
                !std::signbit(after.elements[1].setup_slack));
    walk.check("setup slack +0");
    walk.undo_steps(1);
    walk.check("undone to -0");
  }
  if (HasFailure()) return;

  const std::pair<long, long> rows_before = detail_row_counts();
  int walked = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    DetailWalk walk;
    walk.what = "fuzz seed " + std::to_string(seed);
    if (!walk.load(parser::write_circuit(check::fuzz_circuit(seed)))) continue;
    const Circuit& c = walk.mirror->circuit();
    if (c.num_paths() == 0) continue;
    ++walked;
    std::mt19937_64 rng(seed);
    const auto uniform = [&](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const auto pick = [&](size_t n) {
      return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
    };
    walk.check("loaded");
    for (int step = 0; step < 32 && !HasFailure(); ++step) {
      const std::string name = "step " + std::to_string(step);
      const size_t kind = pick(16);
      if (kind == 0 && !walk.commits.empty()) {
        walk.undo_to_commit(pick(walk.commits.size()));
        walk.check(name + ", undo to a commit");
        continue;
      }
      if (kind == 1 && !walk.commits.empty()) {
        walk.undo_steps(1 + pick(std::min<size_t>(3, walk.commits.size())));
        walk.check(name + ", undo by steps");
        continue;
      }
      const size_t mark = walk.mirror->mark();
      Json edits = Json::array();
      for (size_t k = 1 + pick(3); k > 0 && c.num_paths() > 0; --k) {
        const int p = static_cast<int>(pick(static_cast<size_t>(c.num_paths())));
        const int i = static_cast<int>(pick(static_cast<size_t>(c.num_elements())));
        const CombPath& path = c.path(p);
        const Element& e = c.element(i);
        switch (pick(15)) {
          case 0:
          case 1: {  // a raise, or a lower no further than the min delay
            const double d = pick(2) == 0 ? path.delay * uniform(1.005, 1.05)
                                          : path.min_delay + (path.delay - path.min_delay) *
                                                                 uniform(0.8, 1.0);
            Json edit = path_edit("set_path_delay", p);
            edit.set("delay", Json(d));
            edits.push(std::move(edit));
            walk.mirror->set_path_delay(p, d);
            break;
          }
          case 2: {
            const double m = path.delay * uniform(0.0, 1.0);
            Json edit = path_edit("set_path_min_delay", p);
            edit.set("min", Json(m));
            edits.push(std::move(edit));
            walk.mirror->set_path_min_delay(p, m);
            break;
          }
          case 3: {
            const double d = path.delay * uniform(0.9, 1.1);
            const double m = d * uniform(0.0, 1.0);
            Json edit = path_edit("set_path_delays", p);
            edit.set("delay", Json(d));
            edit.set("min", Json(m));
            edits.push(std::move(edit));
            walk.mirror->set_path_delays(p, d, m);
            break;
          }
          case 4: {
            const std::string label = "x" + std::to_string(pick(4));
            Json edit = path_edit("set_path_label", p);
            edit.set("label", Json(label));
            edits.push(std::move(edit));
            walk.mirror->set_path_label(p, label);
            break;
          }
          case 5: {
            const double v = std::max(e.setup, e.dq * uniform(0.9, 1.2));
            edits.push(element_edit("set_element_dq", i, v));
            walk.mirror->set_element_dq(i, v);
            break;
          }
          case 6: {  // negative values mean "track dq" on the wire
            const double v = pick(3) == 0 ? -2.0 : e.dq * uniform(0.5, 1.0);
            edits.push(element_edit("set_element_dq_min", i, v));
            walk.mirror->set_element_dq_min(i, v < 0.0 ? -1.0 : v);
            break;
          }
          case 7: {
            const double v = e.dq * uniform(0.5, 1.0);
            edits.push(element_edit("set_element_setup", i, v));
            walk.mirror->set_element_setup(i, v);
            break;
          }
          case 8: {
            const double v = uniform(0.0, 1.0);
            edits.push(element_edit("set_element_hold", i, v));
            walk.mirror->set_element_hold(i, v);
            break;
          }
          case 9: {
            const double v = uniform(0.0, 0.5);
            edits.push(element_edit("set_element_skew", i, v));
            walk.mirror->set_element_skew(i, v);
            break;
          }
          case 10: {  // the service and the mirror read the same .lcs text
            const std::string lcs =
                parser::write_schedule(walk.mirror->schedule().scaled(uniform(0.95, 1.3)));
            edits.push(req({{"op", Json("set_schedule")}, {"schedule", Json(lcs)}}));
            walk.mirror->set_schedule(parser::parse_schedule(lcs).value());
            break;
          }
          case 11: {
            const double f = uniform(0.95, 1.3);
            edits.push(req({{"op", Json("scale_schedule")}, {"factor", Json(f)}}));
            walk.mirror->set_schedule(walk.mirror->schedule().scaled(f));
            break;
          }
          case 12:
            if (walk.mirror->derating_allowed()) {
              const double ds = uniform(0.9, 1.15), ms = uniform(0.8, 1.0);
              edits.push(req({{"op", Json("derate")}, {"delay_scale", Json(ds)},
                              {"min_scale", Json(ms)}}));
              walk.mirror->apply_derating(ds, ms);
            }
            break;
          case 13:
            if (pick(4) == 0 && c.num_paths() > 2) {
              edits.push(path_edit("remove_path", p));
              walk.mirror->remove_path(p);
            }
            break;
          default:
            if (pick(4) == 0 && c.num_elements() > 3) {
              edits.push(req({{"op", Json("remove_element")},
                              {"element", Json(static_cast<long>(i))}}));
              walk.mirror->remove_element(i);
            }
            break;
        }
      }
      walk.batch(std::move(edits), mark);
      walk.check(name);
    }
    if (HasFailure()) return;
  }
  EXPECT_GE(walked, 90) << "fuzzer draws stopped loading; the walk lost its teeth";
  // A third or more of the rows were copied from kept answers: the walk ran
  // the reuse path, not only first renders.
  const std::pair<long, long> rows_after = detail_row_counts();
  EXPECT_GT(2 * (rows_after.second - rows_before.second), rows_after.first - rows_before.first);
}

// Readers send detail analyzes of one key while a writer edits it: each
// answer's rows must be a fresh render of the state its fingerprint names,
// whichever kept answer the render reused.
TEST(ServeService, DetailRowsKeptUnderConcurrentReadersMatchTheStateTheyName) {
  circuits::SyntheticParams params;
  params.num_phases = 3;
  params.num_stages = 8;
  params.latches_per_stage = 6;
  DetailWalk walk;
  walk.what = "concurrent";
  ASSERT_TRUE(walk.load(parser::write_circuit(circuits::synthetic_circuit(params, 4242))));
  Json scale = Json::array();
  scale.push(req({{"op", Json("scale_schedule")}, {"factor", Json(1.25)}}));
  walk.mirror->set_schedule(walk.mirror->schedule().scaled(1.25));
  walk.batch(std::move(scale), 0);

  // The rows of every state the writer reaches, by fingerprint. Written by
  // the writer alone, read after the readers joined.
  std::map<std::string, std::string> rows_of_state;
  const auto record_state = [&] {
    rows_of_state[obs::hash_hex(walk.mirror->content_fingerprint())] = rows_as_tree(
        sta::check_schedule(walk.mirror->circuit(), walk.mirror->schedule(), walk.options()),
        walk.mirror->circuit());
  };
  record_state();

  constexpr int kReaders = 3;
  constexpr int kReads = 120;
  std::vector<std::vector<std::string>> frames(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service = walk.service, &mine = frames[static_cast<size_t>(r)]] {
      for (int k = 0; k < kReads; ++k) mine.push_back(detail_frame(service, "c"));
    });
  }
  std::mt19937_64 rng(7);
  const Circuit& c = walk.mirror->circuit();
  for (int step = 0; step < 80; ++step) {
    if (step % 10 == 9 && !walk.commits.empty()) {
      walk.undo_steps(1);
    } else {
      const int p = std::uniform_int_distribution<int>(0, c.num_paths() - 1)(rng);
      const CombPath& path = c.path(p);
      const double d = step % 4 == 3 ? path.min_delay + (path.delay - path.min_delay) * 0.9
                                     : path.delay * 1.02;
      Json edits = Json::array();
      Json edit = path_edit("set_path_delay", p);
      edit.set("delay", Json(d));
      edits.push(std::move(edit));
      const size_t mark = walk.mirror->mark();
      walk.mirror->set_path_delay(p, d);
      walk.batch(std::move(edits), mark);
    }
    record_state();
  }
  for (std::thread& t : readers) t.join();

  size_t answers = 0;
  for (const std::vector<std::string>& mine : frames) {
    for (const std::string& frame : mine) {
      const auto state = rows_of_state.find(fingerprint_of(frame));
      ASSERT_NE(state, rows_of_state.end()) << frame.substr(0, 300);
      EXPECT_EQ(detail_rows_of(frame), state->second) << "state " << state->first;
      ++answers;
    }
  }
  EXPECT_EQ(answers, static_cast<size_t>(kReaders * kReads));
}

// Count the work: a detail analyze renders exactly the rows whose values
// moved since the session's last detail answer, and every row when there is
// none to reuse — the first answer, one after a structural edit, and every
// answer of a service without a cache.
TEST(ServeService, DetailRowsRenderedAreTheRowsWhoseValuesChanged) {
  circuits::SyntheticParams params;  // eco_loop's 6000-latch design
  params.num_phases = 3;
  params.num_stages = 240;
  params.latches_per_stage = 25;
  params.extra_long_edges = 240;
  const std::string lct = parser::write_circuit(circuits::synthetic_circuit(params, 1101));

  for (const size_t cache_bytes : {ServiceConfig{}.cache_bytes, size_t{0}}) {
    ServiceConfig config;
    config.cache_bytes = cache_bytes;
    DetailWalk walk(config);
    walk.what = "cache_bytes " + std::to_string(cache_bytes);
    ASSERT_TRUE(walk.load(lct));
    const long n = walk.mirror->circuit().num_elements();
    ASSERT_EQ(n, 6000);
    Json scale = Json::array();
    scale.push(req({{"op", Json("scale_schedule")}, {"factor", Json(1.25)}}));
    walk.mirror->set_schedule(walk.mirror->schedule().scaled(1.25));
    walk.batch(std::move(scale), 0);

    // Rows rendered and reused by the next detail analyze.
    const auto next_answer = [&](const std::string& step) {
      const std::pair<long, long> before = detail_row_counts();
      walk.check(step);
      const std::pair<long, long> after = detail_row_counts();
      return std::pair{after.first - before.first, after.second - before.second};
    };
    EXPECT_EQ(next_answer("first"), std::pair(n, 0L)) << walk.what;

    const sta::TimingReport before =
        sta::check_schedule(walk.mirror->circuit(), walk.mirror->schedule(), walk.options());
    const int p = walk.mirror->circuit().num_paths() / 2;
    Json edits = Json::array();
    Json raise = path_edit("set_path_delay", p);
    const double raised = walk.mirror->circuit().path(p).delay * 1.05;
    raise.set("delay", Json(raised));
    edits.push(std::move(raise));
    size_t mark = walk.mirror->mark();
    walk.mirror->set_path_delay(p, raised);
    walk.batch(std::move(edits), mark);
    const sta::TimingReport after =
        sta::check_schedule(walk.mirror->circuit(), walk.mirror->schedule(), walk.options());
    long moved = 0;
    for (size_t i = 0; i < after.elements.size(); ++i) {
      if (!same_bits(before.elements[i], after.elements[i])) ++moved;
    }
    ASSERT_GT(moved, 0);
    ASSERT_LT(moved, n / 10);
    const std::pair<long, long> raise_rows = next_answer("one-path raise");
    if (cache_bytes == 0) {
      EXPECT_EQ(raise_rows, std::pair(n, 0L));  // nothing kept: every row rendered
    } else {
      EXPECT_EQ(raise_rows, std::pair(moved, n - moved));
    }

    edits = Json::array();
    edits.push(path_edit("remove_path", 0));
    mark = walk.mirror->mark();
    walk.mirror->remove_path(0);
    walk.batch(std::move(edits), mark);
    EXPECT_EQ(next_answer("structural edit"), std::pair(n, 0L)) << walk.what;
  }
}

TEST(ServeService, SweepScalesFromBaseAndRestoresState) {
  TimingService service;
  const std::string fp0 =
      load_example1(service, "e1").get("result").get("fingerprint").as_string();
  Json factors = Json::array();
  factors.push(Json(1.0));
  factors.push(Json(1.2));
  factors.push(Json(0.9));
  const Json r = expect_ok(service, req({{"verb", Json("sweep")},
                                         {"circuit", Json("e1")},
                                         {"factors", std::move(factors)}}))
                     .get("result");
  const Json& results = r.get("results");
  ASSERT_EQ(results.size(), 3u);
  EXPECT_DOUBLE_EQ(r.get("base_cycle").as_number(), 110.0);
  // Factors scale the ORIGINAL schedule, not the previous step's.
  EXPECT_DOUBLE_EQ(results.at(0).get("cycle").as_number(), 110.0);
  EXPECT_DOUBLE_EQ(results.at(1).get("cycle").as_number(), 110.0 * 1.2);
  EXPECT_DOUBLE_EQ(results.at(2).get("cycle").as_number(), 110.0 * 0.9);
  EXPECT_TRUE(results.at(1).get("feasible").as_bool(false));   // slack grows
  EXPECT_FALSE(results.at(2).get("feasible").as_bool(true));   // below optimum

  // The sweep left no trace: same content, and a plain analyze still matches.
  const Json stats = expect_ok(service, req({{"verb", Json("stats")}})).get("result");
  (void)stats;
  const Json analyzed = expect_ok(service, req({{"verb", Json("analyze")},
                                                {"circuit", Json("e1")}}))
                            .get("result");
  EXPECT_EQ(analyzed.get("fingerprint").as_string(), fp0);
  EXPECT_TRUE(analyzed.get("feasible").as_bool(false));
}

TEST(ServeService, SkewEditInvalidatesCacheAndChangesFingerprint) {
  TimingService service;
  const std::string fp0 =
      load_example1(service, "e1").get("result").get("fingerprint").as_string();
  const Json analyze = req({{"verb", Json("analyze")}, {"circuit", Json("e1")}});
  const Json before = service.handle(analyze);
  EXPECT_TRUE(service.handle(analyze).get("cached").as_bool(false));
  // At the exact optimum some element's setup check binds; skew that one.
  const long critical = before.get("result").get("worst_setup_element").as_long(-1);
  ASSERT_GE(critical, 0);
  EXPECT_NEAR(before.get("result").get("worst_setup_slack").as_number(), 0.0, 1e-9);

  Json edits = Json::array();
  edits.push(req({{"op", Json("set_element_skew")},
                  {"element", Json(critical)},
                  {"value", Json(5.0)}}));
  const Json r = expect_ok(service, req({{"verb", Json("edit_batch")},
                                         {"circuit", Json("e1")},
                                         {"edits", std::move(edits)}}))
                     .get("result");
  EXPECT_NE(r.get("fingerprint").as_string(), fp0);

  // The skew edit must reach a fresh analysis, never the pre-edit cache
  // entry: at the exact optimum, 5 ns of capture skew eats the slack.
  const Json after = service.handle(analyze);
  EXPECT_FALSE(after.get("cached").as_bool(true));
  EXPECT_LT(after.get("result").get("worst_setup_slack").as_number(),
            before.get("result").get("worst_setup_slack").as_number() - 4.9);

  // Negative and non-finite skews are rejected at the protocol boundary.
  Json bad = Json::array();
  bad.push(req({{"op", Json("set_element_skew")},
                {"element", Json(0L)},
                {"value", Json(-1.0)}}));
  expect_error(service, req({{"verb", Json("edit_batch")},
                             {"circuit", Json("e1")},
                             {"edits", std::move(bad)}}),
               "invalid_argument");
}

TEST(ServeService, SkewSweepProducesToleranceCurveAndRestoresState) {
  TimingService service;
  const std::string fp0 =
      load_example1(service, "e1").get("result").get("fingerprint").as_string();
  const Json base = service.handle(req({{"verb", Json("analyze")},
                                        {"circuit", Json("e1")}}))
                        .get("result");
  // The last point deliberately exceeds the base slack so the design tips
  // over: a uniform skew sigma costs every setup check exactly sigma.
  const double s0 = base.get("worst_setup_slack").as_number();
  const double sigma_kill = s0 + 1.0;
  Json skews = Json::array();
  skews.push(Json(0.0));  // zero skew is a legal sweep point
  skews.push(Json(2.0));
  skews.push(Json(sigma_kill));
  const Json r = expect_ok(service, req({{"verb", Json("sweep")},
                                         {"circuit", Json("e1")},
                                         {"param", Json("clock_skew")},
                                         {"factors", Json(skews)}}))
                     .get("result");
  EXPECT_EQ(r.get("param").as_string(), "clock_skew");
  const Json& rows = r.get("results");
  ASSERT_EQ(rows.size(), 3u);
  // Rows are keyed by "skew"; the schedule itself never moves.
  EXPECT_DOUBLE_EQ(rows.at(1).get("skew").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(rows.at(1).get("cycle").as_number(), 110.0);
  // The curve is the base slack shifted down point by point.
  EXPECT_DOUBLE_EQ(rows.at(0).get("worst_setup_slack").as_number(), s0);
  EXPECT_NEAR(rows.at(1).get("worst_setup_slack").as_number(), s0 - 2.0, 1e-9);
  EXPECT_NEAR(rows.at(2).get("worst_setup_slack").as_number(), s0 - sigma_kill, 1e-9);
  EXPECT_TRUE(rows.at(0).get("feasible").as_bool(false));
  EXPECT_FALSE(rows.at(2).get("feasible").as_bool(true));

  // The sweep restored the pre-sweep content exactly.
  EXPECT_EQ(r.get("fingerprint").as_string(), fp0);
  const Json again = expect_ok(service, req({{"verb", Json("analyze")},
                                             {"circuit", Json("e1")}}))
                         .get("result");
  EXPECT_EQ(again.get("fingerprint").as_string(), fp0);

  // Repeat is a cache hit; the same values under param=scale are NOT (the
  // parameter is part of the cache identity) — and a scale of 0 is invalid
  // while a skew of 0 was accepted above.
  const Json repeat = service.handle(req({{"verb", Json("sweep")},
                                          {"circuit", Json("e1")},
                                          {"param", Json("clock_skew")},
                                          {"factors", Json(skews)}}));
  EXPECT_TRUE(repeat.get("cached").as_bool(false)) << repeat.dump();
  expect_error(service, req({{"verb", Json("sweep")},
                             {"circuit", Json("e1")},
                             {"param", Json("scale")},
                             {"factors", Json(skews)}}),
               "invalid_argument");
  Json neg = Json::array();
  neg.push(Json(-0.5));
  expect_error(service, req({{"verb", Json("sweep")},
                             {"circuit", Json("e1")},
                             {"param", Json("clock_skew")},
                             {"factors", std::move(neg)}}),
               "invalid_argument");
  expect_error(service, req({{"verb", Json("sweep")},
                             {"circuit", Json("e1")},
                             {"param", Json("voltage")}}),
               "invalid_argument");
}

// A sweep rewinds to the pre-sweep state after every step, on a design
// large enough that each skew step logs 500+ records: every row is
// check_schedule of that step's state alone, whatever the step before it
// was, the content comes back exactly, and `undo` still reaches the commits
// made before the sweep.
TEST(ServeService, SweepRowsAreEachStepsCheckScheduleAndTheStateComesBack) {
  circuits::SyntheticParams params;  // dashboard_read's 504-latch design
  params.num_phases = 3;
  params.num_stages = 63;
  params.latches_per_stage = 8;
  params.extra_long_edges = 8;
  DetailWalk walk;
  ASSERT_TRUE(walk.load(parser::write_circuit(circuits::synthetic_circuit(params, 2104))));
  sta::AnalysisSession& mirror = *walk.mirror;
  const int l = mirror.circuit().num_elements();
  ASSERT_GE(l, 500);

  // Two commits before the sweeps: relax the optimum, then raise a delay.
  Json scale = Json::array();
  scale.push(req({{"op", Json("scale_schedule")}, {"factor", Json(1.25)}}));
  mirror.set_schedule(mirror.schedule().scaled(1.25));
  walk.batch(std::move(scale), 0);
  const size_t second = mirror.mark();
  const double raised = mirror.circuit().path(0).delay + 1.0;
  Json raise = Json::array();
  raise.push(req({{"op", Json("set_path_delay")}, {"path", Json(0L)}, {"delay", Json(raised)}}));
  mirror.set_path_delay(0, raised);
  walk.batch(std::move(raise), second);
  ASSERT_EQ(walk.commits.size(), 2u);
  const std::string fp = obs::hash_hex(mirror.content_fingerprint());

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto sweep = [&](const std::string& param, const std::vector<double>& values) {
    const bool skew = param == "clock_skew";
    Json factors = Json::array();
    for (const double v : values) factors.push(Json(v));
    const Json r = expect_ok(walk.service, req({{"verb", Json("sweep")},
                                                {"circuit", Json("c")},
                                                {"param", Json(param)},
                                                {"factors", std::move(factors)}}))
                       .get("result");
    const Json& rows = r.get("results");
    ASSERT_EQ(rows.size(), values.size()) << param;
    for (size_t k = 0; k < values.size(); ++k) {
      Circuit circuit = mirror.circuit();
      ClockSchedule schedule = mirror.schedule();
      if (skew) {
        for (int i = 0; i < l; ++i) circuit.element(i).skew = values[k];
      } else {
        schedule = schedule.scaled(values[k]);
      }
      const sta::TimingReport want =
          sta::check_schedule(circuit, schedule, DetailWalk::options());
      const Json& row = rows.at(k);
      const std::string at = param + " step " + std::to_string(k);
      EXPECT_EQ(bits(row.get("cycle").as_number()), bits(schedule.cycle)) << at;
      EXPECT_EQ(row.get("feasible").as_bool(!want.feasible), want.feasible) << at;
      EXPECT_EQ(row.get("converged").as_bool(!want.converged), want.converged) << at;
      EXPECT_EQ(bits(row.get("worst_setup_slack").as_number()), bits(want.worst_setup_slack))
          << at;
      ASSERT_TRUE(std::isfinite(want.worst_hold_slack)) << at;
      EXPECT_EQ(bits(row.get("worst_hold_slack").as_number()), bits(want.worst_hold_slack))
          << at;
    }
    EXPECT_EQ(r.get("fingerprint").as_string(), fp) << param;
    const Json analyzed =
        expect_ok(walk.service, req({{"verb", Json("analyze")}, {"circuit", Json("c")}}))
            .get("result");
    EXPECT_EQ(analyzed.get("fingerprint").as_string(), fp) << param;
  };
  // Skews that fall and then rise, so steps both shrink and grow the worst.
  sweep("clock_skew", {2.0, 0.5, 1.0});
  sweep("scale", {1.0, 1.4, 0.9, 1.2});

  const Json undone = expect_ok(walk.service, req({{"verb", Json("undo")},
                                                   {"circuit", Json("c")},
                                                   {"steps", Json(1L)}}))
                          .get("result");
  EXPECT_EQ(undone.get("mark").as_long(-1), static_cast<long>(second));
  mirror.undo_to(second);
  const Json analyzed = expect_ok(walk.service, req({{"verb", Json("analyze")},
                                                     {"circuit", Json("c")}}))
                            .get("result");
  EXPECT_EQ(analyzed.get("fingerprint").as_string(), obs::hash_hex(mirror.content_fingerprint()));
  EXPECT_NE(analyzed.get("fingerprint").as_string(), fp);
}

TEST(ServeService, MinVerbMatchesLoadOptimum) {
  TimingService service;
  load_example1(service, "e1");
  const Json r = expect_ok(service, req({{"verb", Json("min")}, {"circuit", Json("e1")}}))
                     .get("result");
  EXPECT_DOUBLE_EQ(r.get("min_cycle").as_number(), 110.0);
  // The rendered .lcs parses back to the reported schedule.
  const Expected<ClockSchedule> parsed = parser::parse_schedule(r.get("lcs").as_string());
  ASSERT_TRUE(parsed);
  EXPECT_DOUBLE_EQ(parsed->cycle, 110.0);
}

// `min` answers with the exact maximum cycle ratio, the rows of the cycle
// that sets it, and a schedule that passes check_schedule. The paper pins
// come back with MLP's bits.
TEST(ServeService, MinNamesItsCriticalCycle) {
  struct Pin {
    const char* builtin;
    Circuit circuit;
    double tc;
  };
  for (const Pin& pin : {Pin{"example1", circuits::example1(80.0), 110.0},
                         Pin{"example2", circuits::example2(), 70.0},
                         Pin{"gaas", circuits::gaas_datapath(), 4.3999999999999995}}) {
    TimingService service;
    const Json loaded = expect_ok(service, req({{"verb", Json("load")},
                                                {"circuit", Json("c")},
                                                {"builtin", Json(pin.builtin)}}))
                            .get("result");
    EXPECT_EQ(loaded.get("min_cycle").as_number(), pin.tc) << pin.builtin;
    const Json r = expect_ok(service, req({{"verb", Json("min")}, {"circuit", Json("c")}}))
                       .get("result");
    EXPECT_EQ(r.get("min_cycle").as_number(), pin.tc) << pin.builtin;
    EXPECT_TRUE(sta::check_schedule(pin.circuit, schedule_of(r.get("schedule"))).feasible)
        << pin.builtin;

    const opt::GeneratedLp lp = opt::generate_lp(pin.circuit);
    std::set<std::string> lp_rows;
    for (const lp::Row& row : lp.model.rows()) lp_rows.insert(row.name);
    const Json& cycle = r.get("critical_cycle");
    ASSERT_GT(cycle.size(), 0u) << pin.builtin;
    double sum_a = 0.0;
    long sum_k = 0;
    for (size_t i = 0; i < cycle.size(); ++i) {
      const std::string name = cycle.at(i).get("row").as_string();
      sum_a += cycle.at(i).get("a").as_number();
      sum_k += cycle.at(i).get("k").as_long(-1);
      if (name.rfind("C4:", 0) != 0 && name.rfind("L3:", 0) != 0) {
        EXPECT_TRUE(lp_rows.count(name)) << pin.builtin << ": " << name;
      }
    }
    ASSERT_GT(sum_k, 0) << pin.builtin;
    EXPECT_EQ((0.0 - sum_a) / static_cast<double>(sum_k), pin.tc) << pin.builtin;
  }
}

// The tree a `min` answer was built as before it was written in one pass:
// {min_cycle, schedule, lcs, critical_cycle, fingerprint}, plus mark and
// generation when applied.
Json schedule_tree(const ClockSchedule& schedule) {
  Json s = Json::object();
  s.set("cycle", Json(schedule.cycle));
  Json start = Json::array();
  for (const double v : schedule.start) start.push(Json(v));
  Json width = Json::array();
  for (const double v : schedule.width) width.push(Json(v));
  s.set("start", std::move(start));
  s.set("width", std::move(width));
  return s;
}

Json min_tree(const opt::ExactSolveResult& exact, const std::string& fingerprint) {
  Json result = Json::object();
  result.set("min_cycle", Json(exact.min_cycle));
  result.set("schedule", schedule_tree(exact.schedule));
  result.set("lcs", Json(parser::write_schedule(exact.schedule)));
  Json rows = Json::array();
  for (const opt::CycleRow& r : exact.critical_cycle) {
    Json row = Json::object();
    row.set("row", Json(r.name));
    row.set("a", Json(r.a));
    row.set("k", Json(static_cast<long>(r.k)));
    rows.push(std::move(row));
  }
  result.set("critical_cycle", std::move(rows));
  result.set("fingerprint", Json(fingerprint));
  return result;
}

TEST(ServeService, MinAnswerIsTheBytesOfItsJsonTree) {
  struct Input {
    std::string what;
    Json load;  // the load request's source fields
    Circuit circuit;
  };
  std::vector<Input> inputs;
  // ServeFrameGolden's five designs.
  const std::pair<const char*, Circuit> builtins[] = {
      {"example1", circuits::example1()},
      {"example2", circuits::example2()},
      {"gaas", circuits::gaas_datapath()},
      {"appendix", circuits::appendix_fig1()}};
  for (const auto& [name, circuit] : builtins) {
    inputs.push_back({name, req({{"builtin", Json(name)}}), circuit});
  }
  circuits::SyntheticParams params;
  params.num_phases = 3;
  params.num_stages = 12;
  params.latches_per_stage = 4;
  params.fanin = 3;
  params.extra_long_edges = 2;
  std::vector<std::pair<std::string, std::string>> texts = {
      {"synthetic", parser::write_circuit(circuits::synthetic_circuit(params, 7001))},
      // Row names that need JSON escapes.
      {"odd",
       "circuit odd\nphases 2\n"
       "latch q\"a\\\"b\" phase=1 setup=1 dq=2\n"
       "latch back\\slash phase=2 setup=1 dq=2\n"
       "latch ctl\x01\x1f phase=1 setup=1 dq=2\n"
       "path q\"a\\\"b\" back\\slash delay=7.3\n"
       "path back\\slash ctl\x01\x1f delay=0.1\n"
       "path ctl\x01\x1f q\"a\\\"b\" delay=12.25\n"}};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    texts.push_back({"fuzz seed " + std::to_string(seed),
                     parser::write_circuit(check::fuzz_circuit(seed))});
  }
  for (const auto& [what, text] : texts) {
    Expected<Circuit> circuit = parser::parse_circuit(text);
    ASSERT_TRUE(circuit) << what;
    inputs.push_back({what, req({{"text", Json(text)}}), std::move(*circuit)});
  }

  int applied = 0;
  for (const Input& in : inputs) {
    const Expected<opt::ExactSolveResult> exact = opt::minimize_cycle_time_exact(in.circuit);
    TimingService service;
    Json load = in.load;
    load.set("verb", Json("load"));
    load.set("circuit", Json("c"));
    const std::string loaded = service.handle_line(load.dump());
    if (!exact) {
      EXPECT_NE(loaded.find("\"ok\":false"), std::string::npos) << in.what;
      continue;
    }
    // The load answer's schedule is the same writer's.
    EXPECT_NE(loaded.find("\"schedule\":" + schedule_tree(exact->schedule).dump()),
              std::string::npos)
        << in.what << "\nframe: " << loaded;

    // Stretch the schedule, so the optimum applied below is new content.
    Json edits = Json::array();
    edits.push(req({{"op", Json("scale_schedule")}, {"factor", Json(1.25)}}));
    const Json scaled = expect_ok(service, req({{"verb", Json("edit_batch")},
                                               {"circuit", Json("c")},
                                               {"edits", edits}}))
                            .get("result");
    const std::string fingerprint = scaled.get("fingerprint").as_string();
    const std::uint64_t generation =
        static_cast<std::uint64_t>(scaled.get("generation").as_long(-1));

    const Json min_read = req({{"verb", Json("min")}, {"circuit", Json("c")}});
    const std::string read = service.handle_line(min_read.dump());
    EXPECT_NE(read.find("\"result\":" + min_tree(*exact, fingerprint).dump()), std::string::npos)
        << in.what << "\nframe: " << read;
    expect_ok(service, req({{"verb", Json("analyze")}, {"circuit", Json("c")}}));
    EXPECT_EQ(service.cache().stats().entries, 2u) << in.what;

    Json apply = min_read;
    apply.set("apply", Json(true));
    const std::string written = service.handle_line(apply.dump());
    const Expected<Json> parsed = parse_json(written);
    ASSERT_TRUE(parsed) << in.what;
    const Json& result = parsed->get("result");
    EXPECT_GT(static_cast<std::uint64_t>(result.get("generation").as_long(-1)), generation)
        << in.what;
    Json tree = min_tree(*exact, fingerprint);
    tree.set("mark", Json(result.get("mark").as_long(-1)));
    tree.set("generation", Json(result.get("generation").as_long(-1)));
    EXPECT_NE(written.find("\"result\":" + tree.dump()), std::string::npos)
        << in.what << "\nframe: " << written;
    // The apply moved the key to a new generation and dropped both older
    // entries.
    EXPECT_EQ(service.cache().stats().entries, 0u) << in.what;
    ++applied;
  }
  EXPECT_GT(applied, 40);
}

TEST(ServeService, ReportVerbRendersInMemory) {
  TimingService service;
  load_example1(service, "e1");
  const Json table = expect_ok(service, req({{"verb", Json("report")},
                                             {"circuit", Json("e1")},
                                             {"format", Json("table")}}))
                         .get("result");
  EXPECT_NE(table.get("content").as_string().find("e1"), std::string::npos);
  const Json json = expect_ok(service, req({{"verb", Json("report")},
                                            {"circuit", Json("e1")},
                                            {"format", Json("json")},
                                            {"signoff", Json(true)}}))
                        .get("result");
  EXPECT_TRUE(parse_json(json.get("content").as_string()))
      << "report json must itself be valid JSON";
  expect_error(service, req({{"verb", Json("report")},
                             {"circuit", Json("e1")},
                             {"format", Json("pdf")}}),
               "invalid_argument");
}

TEST(ServeService, DeratedCornerGetsItsOwnContentIdentity) {
  // The corner is part of the cache identity (RunMetadata contract): the
  // same circuit derated differently must produce different fingerprints
  // and must never be served from the nominal corner's cache entries.
  TimingService service;
  load_example1(service, "nom");
  load_example1(service, "slow");
  const Json analyze_nom = req({{"verb", Json("analyze")}, {"circuit", Json("nom")}});
  const Json nominal = service.handle(analyze_nom).get("result");

  Json edits = Json::array();
  edits.push(req({{"op", Json("derate")},
                  {"delay_scale", Json(1.1)},
                  {"min_scale", Json(0.9)}}));
  const Json derated_state = expect_ok(service, req({{"verb", Json("edit_batch")},
                                                     {"circuit", Json("slow")},
                                                     {"edits", std::move(edits)}}))
                                 .get("result");
  EXPECT_NE(derated_state.get("fingerprint").as_string(),
            nominal.get("fingerprint").as_string());

  const Json derated = service.handle(req({{"verb", Json("analyze")},
                                           {"circuit", Json("slow")}}));
  EXPECT_FALSE(derated.get("cached").as_bool(true));
  EXPECT_NE(derated.get("result").get("worst_setup_slack").as_number(),
            nominal.get("worst_setup_slack").as_number());
}

TEST(ServeService, SessionPoolEvictsLruUnderByteBudget) {
  ServiceConfig config;
  config.session_bytes = 1;  // every load evicts all idle predecessors
  TimingService service(config);
  load_example1(service, "a");
  load_example1(service, "b");
  EXPECT_GE(service.pool_stats().evictions, 1L);
  EXPECT_EQ(service.pool_stats().sessions, 1u);
  expect_error(service, req({{"verb", Json("analyze")}, {"circuit", Json("a")}}),
               "not_loaded");
  expect_ok(service, req({{"verb", Json("analyze")}, {"circuit", Json("b")}}));
}

TEST(ServeService, StatsReportsSessionsCacheAndMetrics) {
  TimingService service;
  load_example1(service, "e1");
  service.handle(req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}));
  const Json r = expect_ok(service, req({{"verb", Json("stats")}})).get("result");
  EXPECT_EQ(r.get("sessions").get("count").as_long(0), 1);
  EXPECT_GT(r.get("sessions").get("bytes").as_long(0), 0);
  EXPECT_EQ(r.get("sessions").get("keys").at(0).get("circuit").as_string(), "e1");
  EXPECT_GE(r.get("cache").get("entries").as_long(-1), 1);
  // The registered gauges/counters show up in the metrics array by name.
  bool saw_evictions = false, saw_cache_bytes = false;
  for (const Json& m : r.get("metrics").items()) {
    const std::string& name = m.get("name").as_string();
    if (name == "session.evictions") saw_evictions = true;
    if (name == "cache.bytes") saw_cache_bytes = true;
  }
  EXPECT_TRUE(saw_evictions);
  EXPECT_TRUE(saw_cache_bytes);
}

TEST(ServeService, ErrorEnvelopes) {
  TimingService service;
  expect_error(service, req({{"verb", Json("analyze")}, {"circuit", Json("ghost")}}),
               "not_loaded");
  expect_error(service, req({{"verb", Json("frobnicate")}}), "unknown_verb");
  expect_error(service, req({{"verb", Json("load")}, {"circuit", Json("x")},
                             {"builtin", Json("no_such_builtin")}}),
               "invalid_argument");
  expect_error(service, req({{"verb", Json("load")}, {"circuit", Json("x")},
                             {"text", Json("not an lct file")}}),
               "invalid_argument");
}

TEST(ServeService, HandleLineRoundTripsFramesAndSurvivesGarbage) {
  TimingService service;
  const std::string frame =
      service.handle_line(R"({"id": 3, "verb": "load", "circuit": "e1", )"
                          R"("builtin": "example1"})");
  ASSERT_EQ(frame.back(), '\n');
  const Expected<Json> response = parse_json(std::string_view(frame).substr(0, frame.size() - 1));
  ASSERT_TRUE(response);
  EXPECT_EQ(response->get("id").as_long(0), 3);
  EXPECT_TRUE(response->get("ok").as_bool(false));

  for (const char* bad : {"", "]", "{\"no\": \"verb\"}", "\x01\x02", "{\"verb\":7}"}) {
    const std::string err_frame = service.handle_line(bad);
    const Expected<Json> err = parse_json(std::string_view(err_frame).substr(0, err_frame.size() - 1));
    ASSERT_TRUE(err) << "error frame must still be valid JSON for: " << bad;
    EXPECT_FALSE(err->get("ok").as_bool(true));
  }
}

TEST(ServeService, HandleLineEnforcesFrameCap) {
  ServiceConfig config;
  config.max_frame_bytes = 128;
  TimingService service(config);
  std::string big = R"({"verb": "load", "circuit": "x", "text": ")";
  big.append(256, 'a');
  big += "\"}";
  const std::string frame = service.handle_line(big);
  const Expected<Json> response = parse_json(std::string_view(frame).substr(0, frame.size() - 1));
  ASSERT_TRUE(response);
  EXPECT_FALSE(response->get("ok").as_bool(true));
}

TEST(ServeService, ResetDropsEverything) {
  TimingService service;
  load_example1(service, "e1");
  service.handle(req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}));
  service.reset();
  EXPECT_EQ(service.pool_stats().sessions, 0u);
  EXPECT_EQ(service.cache().stats().entries, 0u);
  expect_error(service, req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}),
               "not_loaded");
}

TEST(ServeService, MetricsVerbEmitsPrometheusText) {
  TimingService service;
  load_example1(service, "e1");
  service.handle(req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}));
  const Json r = expect_ok(service, req({{"verb", Json("metrics")}})).get("result");
  EXPECT_EQ(r.get("format").as_string(), "prometheus");
  const std::string& text = r.get("content").as_string();
  EXPECT_NE(text.find("# TYPE mintc_serve_requests_total counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mintc_serve_requests_total "), std::string::npos);
  EXPECT_NE(text.find("# TYPE mintc_serve_latency_us histogram"), std::string::npos);
  EXPECT_NE(text.find("mintc_serve_latency_us_bucket{le=\"+Inf\"}"), std::string::npos);
  // The verb refreshes runtime gauges before rendering.
  EXPECT_NE(text.find("mintc_cache_bytes"), std::string::npos);
  EXPECT_NE(text.find("mintc_session_count 1"), std::string::npos) << text;
  EXPECT_NE(text.find("mintc_serve_inflight 1"), std::string::npos)
      << "the metrics request itself is in flight\n" << text;
}

// A sampled request's record is its trace: the `trace` verb renders it as
// one request span enclosing one span per nonzero stage, with the same
// stage times the slow table and the audit line show.
TEST(ServeService, TraceVerbReturnsTheSampledRequestTree) {
  const std::string audit_path = ::testing::TempDir() + "trace_verb_audit.jsonl";
  std::remove(audit_path.c_str());
  ServiceConfig config;
  config.audit_path = audit_path;
  TimingService service(config);
  load_example1(service, "e1");

  const Json response = service.handle(req({{"verb", Json("analyze")},
                                            {"circuit", Json("e1")},
                                            {"trace", Json("deadbeef01")}}));
  EXPECT_TRUE(response.get("ok").as_bool(false)) << response.dump();
  EXPECT_EQ(response.get("trace").as_string(), "000000deadbeef01");

  const Json r = expect_ok(service, req({{"verb", Json("trace")}})).get("result");
  EXPECT_EQ(r.get("format").as_string(), "chrome_trace");
  EXPECT_EQ(r.get("dropped").as_long(-1), 0);
  const Expected<Json> parsed = parse_json(r.get("content").as_string());
  ASSERT_TRUE(parsed) << "trace content must be valid Chrome trace JSON";
  const Json& events = parsed->get("traceEvents");
  EXPECT_EQ(static_cast<long>(events.size()), r.get("events").as_long(-1));
  ASSERT_GE(events.size(), 4u);

  // The request span opens and closes the tree; its args name the request.
  const Json& begin = events.at(0);
  const Json& end = events.at(events.size() - 1);
  EXPECT_EQ(begin.get("ph").as_string(), "B");
  EXPECT_EQ(begin.get("name").as_string(), "serve.analyze");
  EXPECT_EQ(begin.get("args").get("trace").as_string(), "000000deadbeef01");
  EXPECT_EQ(begin.get("args").get("verb").as_string(), "analyze");
  EXPECT_EQ(begin.get("args").get("circuit").as_string(), "e1");
  EXPECT_FALSE(begin.get("args").get("cached").as_bool(true));
  EXPECT_TRUE(begin.get("args").get("ok").as_bool(false));
  EXPECT_EQ(end.get("ph").as_string(), "E");
  EXPECT_EQ(end.get("name").as_string(), "serve.analyze");
  const double start = begin.get("ts").as_number();
  const double stop = end.get("ts").as_number();

  // The same record in the slow table and in the audit log.
  RequestRecord record;
  for (const RequestRecord& slow : service.slow_requests()) {
    if (slow.trace == "000000deadbeef01") record = slow;
  }
  ASSERT_EQ(record.verb, "analyze");
  EXPECT_NEAR(stop - start, record.wall_us, 1e-3);
  Json audit_stages;
  {
    std::ifstream in(audit_path);
    std::string line;
    while (std::getline(in, line)) {
      const Expected<Json> a = parse_json(line);
      if (a && a->get("trace").as_string() == "000000deadbeef01") audit_stages = a->get("stages");
    }
  }
  ASSERT_TRUE(audit_stages.is_object());

  // One span per nonzero stage, in request order, end to end inside the
  // request span.
  std::vector<std::pair<std::string, double>> spans;  // (stage, duration)
  for (size_t k = 1; k + 1 < events.size(); k += 2) {
    const Json& b = events.at(k);
    const Json& e = events.at(k + 1);
    ASSERT_EQ(b.get("ph").as_string(), "B");
    ASSERT_EQ(e.get("ph").as_string(), "E");
    ASSERT_EQ(b.get("name").as_string(), e.get("name").as_string());
    EXPECT_EQ(b.get("args").get("trace").as_string(), "000000deadbeef01");
    EXPECT_GE(b.get("ts").as_number(), start);
    EXPECT_LE(e.get("ts").as_number(), stop + 1e-6);
    spans.emplace_back(b.get("name").as_string(), e.get("ts").as_number() - b.get("ts").as_number());
  }
  std::vector<std::pair<std::string, double>> nonzero;
  for (const auto& [name, us] : record.stages.named()) {
    if (us > 0.0) nonzero.emplace_back(name, us);
  }
  ASSERT_EQ(spans.size(), nonzero.size());
  for (size_t k = 0; k < spans.size(); ++k) {
    EXPECT_EQ(spans[k].first, nonzero[k].first);
    EXPECT_NEAR(spans[k].second, nonzero[k].second, 1e-3) << spans[k].first;
    // The audit line rounds each stage down to 0.1 µs.
    EXPECT_NEAR(spans[k].second, audit_stages.get(spans[k].first).as_number(), 0.1 + 1e-3)
        << spans[k].first;
  }
  // A miss: the analysis is work, building and dumping the payload render.
  EXPECT_GT(record.stages.work, 0.0);
  EXPECT_GT(record.stages.render, 0.0);

  // The default drains the ring: a second drain starts empty.
  const Json drained = expect_ok(service, req({{"verb", Json("trace")}})).get("result");
  EXPECT_EQ(drained.get("events").as_long(-1), 0);
  std::remove(audit_path.c_str());
}

TEST(ServeService, TraceVerbClearFalseKeepsTheBuffer) {
  TimingService service;
  load_example1(service, "e1");
  service.handle(req({{"verb", Json("analyze")},
                      {"circuit", Json("e1")},
                      {"trace", Json("abc123")}}));
  const Json keep = expect_ok(service, req({{"verb", Json("trace")},
                                            {"clear", Json(false)}}))
                        .get("result");
  EXPECT_GT(keep.get("events").as_long(0), 0);
  const Json again = expect_ok(service, req({{"verb", Json("trace")}})).get("result");
  EXPECT_EQ(again.get("events").as_long(-1), keep.get("events").as_long(-2));
}

// The ring keeps the newest kTraceRecords sampled records; `dropped` counts
// the ones pushed out since the last drain.
TEST(ServeService, TraceRingKeepsTheNewestRecordsAndCountsTheRest) {
  TimingService service;
  load_example1(service, "e1");
  const long extra = 5;
  const long sent = static_cast<long>(TimingService::kTraceRecords) + extra;
  for (long k = 1; k <= sent; ++k) {
    service.handle_line(R"({"verb": "analyze", "circuit": "e1", "trace": ")" +
                        trace_id_hex(static_cast<std::uint64_t>(k)) + "\"}");
  }
  const Json r = expect_ok(service, req({{"verb", Json("trace")}})).get("result");
  EXPECT_EQ(r.get("dropped").as_long(-1), extra);
  const Expected<Json> parsed = parse_json(r.get("content").as_string());
  ASSERT_TRUE(parsed);
  std::vector<std::string> kept;
  for (const Json& e : parsed->get("traceEvents").items()) {
    if (e.get("ph").as_string() == "B" && e.get("name").as_string() == "serve.analyze") {
      kept.push_back(e.get("args").get("trace").as_string());
    }
  }
  ASSERT_EQ(kept.size(), TimingService::kTraceRecords);
  EXPECT_EQ(kept.front(), trace_id_hex(static_cast<std::uint64_t>(extra + 1)));
  EXPECT_EQ(kept.back(), trace_id_hex(static_cast<std::uint64_t>(sent)));
  // The drain reset the count.
  const Json drained = expect_ok(service, req({{"verb", Json("trace")}})).get("result");
  EXPECT_EQ(drained.get("dropped").as_long(-1), 0);
  EXPECT_EQ(drained.get("events").as_long(-1), 0);
}

// Sampling keeps a record; it does not switch the engines' tracer on.
TEST(ServeService, SampledTrafficRecordsNoTracerEvents) {
  obs::Tracer::instance().clear();
  TimingService service;
  load_example1(service, "e1");
  for (const char* verb : {"analyze", "report", "sweep", "min"}) {
    expect_ok(service, req({{"verb", Json(verb)},
                            {"circuit", Json("e1")},
                            {"trace", Json("feed")}}));
  }
  EXPECT_EQ(obs::Tracer::instance().num_events(), 0u);
  const Json r = expect_ok(service, req({{"verb", Json("trace")}})).get("result");
  EXPECT_GT(r.get("events").as_long(0), 0);
}

// An unsampled id is validated and the request answered, but nothing is
// kept for the trace verb. The response does not carry the id, as before
// records replaced spans: only a sampled id is echoed.
TEST(ServeService, UnsampledTraceIdIsAnsweredButNotKept) {
  TimingService service;
  load_example1(service, "e1");
  Json trace = Json::object();
  trace.set("id", Json("1f00"));
  trace.set("sampled", Json(false));
  const Json response =
      expect_ok(service, req({{"verb", Json("analyze")}, {"circuit", Json("e1")},
                              {"trace", trace}}));
  EXPECT_TRUE(response.get("trace").is_null()) << response.dump();
  const Json r = expect_ok(service, req({{"verb", Json("trace")}})).get("result");
  EXPECT_EQ(r.get("events").as_long(-1), 0);
  for (const RequestRecord& slow : service.slow_requests()) EXPECT_EQ(slow.trace, "");
}

// A report miss: building the SlackDB is the engine step (work), rendering
// the report and dumping the answer is render — in the slow table and in
// the trace verb alike.
TEST(ServeService, ReportMissSplitsTheSlackDbBuildFromItsRender) {
  TimingService service;
  load_example1(service, "e1");
  expect_ok(service, req({{"verb", Json("report")}, {"circuit", Json("e1")},
                          {"trace", Json("5eed")}}));
  RequestRecord miss;
  for (const RequestRecord& slow : service.slow_requests()) {
    if (slow.verb == "report") miss = slow;
  }
  ASSERT_EQ(miss.verb, "report");
  EXPECT_FALSE(miss.cached);
  EXPECT_GT(miss.stages.work, 0.0);
  EXPECT_GT(miss.stages.render, 0.0);

  const Json r = expect_ok(service, req({{"verb", Json("trace")}})).get("result");
  const Expected<Json> parsed = parse_json(r.get("content").as_string());
  ASSERT_TRUE(parsed);
  std::set<std::string> stages;
  for (const Json& e : parsed->get("traceEvents").items()) {
    if (e.get("ph").as_string() == "B") stages.insert(e.get("name").as_string());
  }
  EXPECT_TRUE(stages.count("serve.report"));
  EXPECT_TRUE(stages.count("work"));
  EXPECT_TRUE(stages.count("render"));
}

TEST(ServeService, UntracedRequestsRecordNoSpansAndEchoNothing) {
  obs::Tracer::instance().clear();
  TimingService service;
  load_example1(service, "e1");
  const Json response =
      service.handle(req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}));
  EXPECT_TRUE(response.get("ok").as_bool(false));
  EXPECT_TRUE(response.get("trace").is_null());
  EXPECT_EQ(obs::Tracer::instance().num_events(), 0u);
  const Json r = expect_ok(service, req({{"verb", Json("trace")}})).get("result");
  EXPECT_EQ(r.get("events").as_long(-1), 0);
}

TEST(ServeService, MalformedTraceFieldRejectsTheRequest) {
  TimingService service;
  load_example1(service, "e1");
  const Json response = expect_error(service,
                                     req({{"verb", Json("analyze")},
                                          {"circuit", Json("e1")},
                                          {"trace", Json("xyz")}}),
                                     "invalid_argument");
  EXPECT_NE(response.get("error").get("message").as_string().find("hex"),
            std::string::npos)
      << response.dump();
}

TEST(ServeService, SlowRequestThresholdCountsRequests) {
  const long before =
      obs::MetricsRegistry::instance().counter("serve.slow_requests").value();
  ServiceConfig config;
  config.slow_request_us = 1;  // every real request is slower than 1us
  TimingService service(config);
  load_example1(service, "e1");
  service.handle(req({{"verb", Json("analyze")}, {"circuit", Json("e1")}}));
  EXPECT_GE(obs::MetricsRegistry::instance().counter("serve.slow_requests").value(),
            before + 2);
}

// Integer fields past long's range saturate (serve/json.h) instead of
// reading LONG_MIN, so each request below meets its upper bound.
TEST(ServeService, HugeStatusTopClampsToTheWholeSlowTable) {
  TimingService service;
  for (int i = 0; i < 6; ++i) expect_ok(service, req({{"verb", Json("stats")}}));
  const std::string html = expect_ok(service, req({{"verb", Json("status")}, {"top", Json(1e300)}}))
                               .get("result")
                               .get("content")
                               .as_string();
  size_t rows = 0;
  for (size_t pos = html.find("<td>stats</td>"); pos != std::string::npos;
       pos = html.find("<td>stats</td>", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 6u) << html;
}

TEST(ServeService, HugeSweepStepsHitTheStepCap) {
  TimingService service;
  load_example1(service, "e1");
  const Json response = expect_error(
      service, req({{"verb", Json("sweep")}, {"circuit", Json("e1")}, {"steps", Json(1e300)}}),
      "invalid_argument");
  EXPECT_EQ(response.get("error").get("message").as_string(), "steps exceeds the cap of 4096");
}

TEST(ServeService, HugeUndoMarkIsNamedSaturated) {
  TimingService service;
  load_example1(service, "e1");
  const Json response = expect_error(
      service, req({{"verb", Json("undo")}, {"circuit", Json("e1")}, {"to", Json(1e300)}}),
      "invalid_argument");
  EXPECT_EQ(response.get("error").get("message").as_string().rfind("mark 9223372036854775807 ", 0),
            0u)
      << response.dump();
}

TEST(ServeService, TelemetryOffServesIdenticallyWithoutRecording) {
  obs::Tracer::instance().clear();
  ServiceConfig config;
  config.telemetry = false;
  TimingService service(config);
  load_example1(service, "e1");

  // A sampled trace field is still validated and echoed (protocol), but no
  // record is kept (telemetry).
  const Json response = service.handle(req({{"verb", Json("analyze")},
                                            {"circuit", Json("e1")},
                                            {"trace", Json("beef")}}));
  EXPECT_TRUE(response.get("ok").as_bool(false)) << response.dump();
  EXPECT_EQ(response.get("trace").as_string(), "000000000000beef");
  EXPECT_EQ(obs::Tracer::instance().num_events(), 0u);
  EXPECT_EQ(expect_ok(service, req({{"verb", Json("trace")}}))
                .get("result")
                .get("events")
                .as_long(-1),
            0);
  expect_error(service, req({{"verb", Json("analyze")},
                             {"circuit", Json("e1")},
                             {"trace", Json("not-hex")}}),
               "invalid_argument");
}

}  // namespace
}  // namespace mintc::serve
