// Soak: many concurrent edit/analyze streams against one TimingService.
//
// The tentpole acceptance gate: >= 1024 logical streams over >= 8 distinct
// base circuits, driven concurrently, with ZERO lost or corrupt responses
// and every analysis BIT-identical to a direct sta::check_schedule of the
// same content.
//
// The big soak drives TimingService::handle_line directly (full request
// encode -> parse -> dispatch -> response encode -> parse path, no fd
// limits); a smaller companion soak runs the same traffic through real
// sockets (SocketServer + Client). Scale knobs for slow runners (TSan CI):
//   MINTC_SOAK_STREAMS  logical stream count   (default 1024)
//   MINTC_SOAK_ROUNDS   edit+analyze rounds    (default 3)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "circuits/synthetic.h"
#include "obs/trace.h"
#include "parser/lct.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sta/analysis.h"

namespace mintc::serve {
namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

constexpr int kBaseCircuits = 8;

Circuit base_circuit(int which) {
  circuits::SyntheticParams params;
  params.num_phases = 2 + which % 3;
  params.num_stages = 4 + which % 4;
  params.latches_per_stage = 2 + which % 2;
  params.fanin = 2;
  params.extra_long_edges = which % 5;
  return circuits::synthetic_circuit(params, 2000 + static_cast<uint64_t>(which));
}

Json req(std::initializer_list<std::pair<std::string, Json>> fields) {
  Json r = Json::object();
  for (const auto& [k, v] : fields) r.set(k, v);
  return r;
}

ClockSchedule schedule_from(const Json& s) {
  ClockSchedule out;
  out.cycle = s.num_or("cycle", 0.0);
  for (const Json& v : s.get("start").items()) out.start.push_back(v.as_number());
  for (const Json& v : s.get("width").items()) out.width.push_back(v.as_number());
  return out;
}

/// Bit-compare a served detail analysis against check_schedule of `mirror`.
/// Returns "" when identical.
std::string compare_bitwise(const Json& result, const Circuit& mirror,
                            const ClockSchedule& schedule) {
  sta::AnalysisOptions options;
  options.check_hold = true;
  const sta::TimingReport local = sta::check_schedule(mirror, schedule, options);
  if (result.bool_or("feasible", !local.feasible) != local.feasible) return "feasible";
  if (result.num_or("worst_setup_slack", local.worst_setup_slack + 1) !=
      local.worst_setup_slack) {
    return "worst_setup_slack";
  }
  const Json& elements = result.get("elements");
  if (static_cast<size_t>(elements.size()) != local.elements.size()) return "element count";
  for (size_t i = 0; i < local.elements.size(); ++i) {
    const Json& e = elements.at(i);
    if (e.num_or("departure", local.elements[i].departure + 1) !=
        local.elements[i].departure) {
      return "departure[" + std::to_string(i) + "]";
    }
    if (e.num_or("setup_slack", local.elements[i].setup_slack + 1) !=
        local.elements[i].setup_slack) {
      return "setup_slack[" + std::to_string(i) + "]";
    }
  }
  return "";
}

struct StreamStats {
  std::atomic<long> responses{0};
  std::atomic<long> errors{0};
  std::atomic<long> mismatches{0};
  std::mutex mu;
  std::string first_problem;

  void problem(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mu);
    if (first_problem.empty()) first_problem = what;
  }
};

/// One logical stream: load its own circuit key, then `rounds` of
/// edit_batch + analyze(detail), each analysis bit-compared locally.
/// `call` abstracts the transport (handle_line or a socket Client).
template <typename CallFn>
void run_stream(CallFn&& call, int stream, int rounds, StreamStats& stats) {
  const std::string key = "soak-" + std::to_string(stream);
  const std::string text =
      parser::write_circuit(base_circuit(stream % kBaseCircuits));
  // The mirror is the circuit as the server parses it.
  Expected<Circuit> reparsed = parser::parse_circuit(text);
  if (!reparsed) {
    stats.errors.fetch_add(1);
    stats.problem("mirror parse: " + reparsed.error().to_string());
    return;
  }
  Circuit mirror = std::move(*reparsed);

  const Json loaded = call(req({{"verb", Json("load")}, {"circuit", Json(key)},
                                {"text", Json(text)}}));
  stats.responses.fetch_add(1);
  if (!loaded.get("ok").as_bool(false)) {
    stats.errors.fetch_add(1);
    stats.problem("load: " + loaded.dump());
    return;
  }
  const ClockSchedule schedule =
      schedule_from(loaded.get("result").get("schedule"));

  for (int round = 0; round < rounds; ++round) {
    const int p = (stream * 7 + round * 13) % mirror.num_paths();
    const double delay = mirror.path(p).delay + 0.125;
    Json edits = Json::array();
    edits.push(req({{"op", Json("set_path_delay")}, {"path", Json(static_cast<long>(p))},
                    {"delay", Json(delay)}}));
    const Json edited = call(req({{"verb", Json("edit_batch")},
                                  {"circuit", Json(key)},
                                  {"edits", std::move(edits)}}));
    stats.responses.fetch_add(1);
    if (!edited.get("ok").as_bool(false)) {
      stats.errors.fetch_add(1);
      stats.problem("edit: " + edited.dump());
      return;
    }
    mirror.set_path_delay(p, delay);

    const Json analyzed = call(req({{"verb", Json("analyze")}, {"circuit", Json(key)},
                                    {"detail", Json(true)}}));
    stats.responses.fetch_add(1);
    if (!analyzed.get("ok").as_bool(false)) {
      stats.errors.fetch_add(1);
      stats.problem("analyze: " + analyzed.dump());
      return;
    }
    const std::string mismatch =
        compare_bitwise(analyzed.get("result"), mirror, schedule);
    if (!mismatch.empty()) {
      stats.mismatches.fetch_add(1);
      stats.problem("stream " + std::to_string(stream) + " round " +
                    std::to_string(round) + ": " + mismatch + " not bit-identical");
    }
  }
}

TEST(ServeSoak, ThousandStreamsInProcessBitIdentical) {
  const int streams = env_int("MINTC_SOAK_STREAMS", 1024);
  const int rounds = env_int("MINTC_SOAK_ROUNDS", 3);
  const int threads = 16;

  ServiceConfig config;
  config.cache_bytes = 8u << 20;   // small enough to churn
  config.session_bytes = 1u << 30; // keep every stream warm (bit-compare all)
  TimingService service(config);
  StreamStats stats;

  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int s = next.fetch_add(1); s < streams; s = next.fetch_add(1)) {
        run_stream(
            [&service](const Json& request) -> Json {
              const std::string frame = service.handle_line(request.dump());
              // The wire frame is re-parsed, so corruption anywhere in the
              // encode/decode path shows up as an error here.
              Expected<Json> response =
                  parse_json(std::string_view(frame).substr(0, frame.size() - 1));
              return response ? std::move(*response) : Json();
            },
            s, rounds, stats);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(stats.errors.load(), 0) << stats.first_problem;
  EXPECT_EQ(stats.mismatches.load(), 0) << stats.first_problem;
  EXPECT_EQ(stats.responses.load(), streams * (1 + 2 * rounds))
      << "lost responses";
  EXPECT_EQ(service.pool_stats().sessions, static_cast<size_t>(streams));
}

TEST(ServeSoak, SocketStreamsBitIdentical) {
  const int streams = env_int("MINTC_SOAK_SOCKET_STREAMS", 64);
  const int rounds = env_int("MINTC_SOAK_ROUNDS", 3);
  const int threads = 8;

  TimingService service;
  ServerConfig config;
  config.tcp_port = 0;
  config.num_threads = 4;
  SocketServer server(service, config);
  ASSERT_TRUE(server.start());
  const std::string address = "127.0.0.1:" + std::to_string(server.tcp_port());

  StreamStats stats;
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      Client client;
      if (!client.connect(address)) {
        stats.errors.fetch_add(1);
        stats.problem("connect failed");
        return;
      }
      for (int s = next.fetch_add(1); s < streams; s = next.fetch_add(1)) {
        run_stream(
            [&client, &stats](Json request) -> Json {
              Expected<Json> response = client.call(std::move(request));
              if (!response) {
                stats.problem("transport: " + response.error().to_string());
                return Json();
              }
              return std::move(*response);
            },
            s, rounds, stats);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  server.stop();

  EXPECT_EQ(stats.errors.load(), 0) << stats.first_problem;
  EXPECT_EQ(stats.mismatches.load(), 0) << stats.first_problem;
  EXPECT_EQ(stats.responses.load(), streams * (1 + 2 * rounds));
}

// Telemetry must be an OBSERVER: with every request sampled (the worst
// case), analyses remain bit-identical, every response echoes its request's
// trace id, and every sampled request leaves one record for the trace verb.
TEST(ServeSoak, FullySampledTrafficStaysBitIdentical) {
  const int streams = env_int("MINTC_SOAK_TRACED_STREAMS", 64);
  const int rounds = env_int("MINTC_SOAK_ROUNDS", 3);
  const int threads = 8;

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();

  ServiceConfig config;
  config.session_bytes = 1u << 30;
  TimingService service(config);
  StreamStats stats;
  std::atomic<long> seq{0};
  std::atomic<long> echo_misses{0};

  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int s = next.fetch_add(1); s < streams; s = next.fetch_add(1)) {
        run_stream(
            [&](Json request) -> Json {
              const std::string id = trace_id_hex(
                  static_cast<std::uint64_t>(seq.fetch_add(1) + 1));
              request.set("trace", Json(id));  // 100% sampling
              const std::string frame = service.handle_line(request.dump());
              Expected<Json> response =
                  parse_json(std::string_view(frame).substr(0, frame.size() - 1));
              if (!response) return Json();
              if (response->get("trace").as_string() != id) echo_misses.fetch_add(1);
              return std::move(*response);
            },
            s, rounds, stats);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(stats.errors.load(), 0) << stats.first_problem;
  EXPECT_EQ(stats.mismatches.load(), 0) << stats.first_problem;
  EXPECT_EQ(stats.responses.load(), streams * (1 + 2 * rounds)) << "lost responses";
  EXPECT_EQ(echo_misses.load(), 0) << "responses must echo their trace id";
  EXPECT_EQ(tracer.num_events(), 0u) << "sampling keeps records, not tracer spans";

  // One request event per sampled response, counting any record the ring
  // pushed out.
  const TimingService::RecordTrace trace = service.record_trace(true);
  const Expected<Json> parsed = parse_json(trace.content);
  ASSERT_TRUE(parsed);
  long requests = 0;
  for (const Json& e : parsed->get("traceEvents").items()) {
    if (e.get("ph").as_string() == "B" && e.get("name").as_string().rfind("serve.", 0) == 0) {
      ++requests;
    }
  }
  EXPECT_EQ(requests + static_cast<long>(trace.dropped), seq.load());
}

}  // namespace
}  // namespace mintc::serve
