// timing_client — protocol client and load generator for timing_serve.
//
// One-shot mode (print the response for a single request):
//   timing_client --connect unix:/tmp/mintc.sock --req '{"verb":"stats"}'
//   timing_client --connect 127.0.0.1:7317 --stats
//
// Load-generator mode (the latency-SLO measurement rig):
//   timing_client --connect unix:/tmp/mintc.sock --streams 64 --rounds 10
//       --circuits 8 --threads 8 --verify --out client_bench.json
//
// Each logical stream owns its own circuit key on the server: it loads a
// synthetic circuit (one of --circuits base shapes), then runs --rounds of
// edit_batch (a deterministic path-delay perturbation) + analyze. Threads
// each hold one connection and drive their share of streams; every round
// trip is timed client-side and the run reports exact p50/p95/p99 over all
// requests. --verify replays each stream's edits on a local mirror circuit
// and bit-compares the served analysis against a direct sta::check_schedule
// — the service's core correctness contract, checked over the real socket.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "circuits/synthetic.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "parser/lct.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "sta/analysis.h"

using namespace mintc;
using serve::Json;

namespace {

struct LoadGenConfig {
  std::string address;
  int streams = 64;
  int rounds = 10;
  int circuits = 8;
  int threads = 8;
  bool verify = false;
  /// Attach a trace id to every Nth request (0 = none, 1 = all). Ids are
  /// deterministic functions of the global request sequence number.
  int trace_sample = 0;
  /// Request the cost-attribution block on every Nth request (0 = none,
  /// 1 = all). With --verify, every cost-bearing analyze is re-issued
  /// without the block and the result payloads are byte-compared — the
  /// envelope-only contract for attribution, checked over the real socket.
  int cost_sample = 0;
  std::string out_path;
  std::string trace_out;
};

/// Global request sequence for --trace-sample: every Nth request across all
/// threads carries a trace id derived from its sequence number.
std::atomic<long> g_request_seq{0};

struct ThreadResult {
  std::vector<double> latencies_us;
  std::map<std::string, std::vector<double>> verb_latencies_us;
  long requests = 0;
  long errors = 0;
  long cache_hits = 0;
  long traced = 0;
  long verify_failures = 0;
  long costed = 0;             // responses carrying a cost block
  long cost_cpu_us = 0;        // attributed CPU summed over them
  long cost_relaxations = 0;   // attributed engine work summed over them
  std::string first_error;
};

std::uint64_t trace_id_for(long seq) {
  const std::uint64_t id = obs::Fnv1a().u64(static_cast<std::uint64_t>(seq)).digest();
  return id != 0 ? id : 1;  // 0 is not a valid trace id
}

Circuit base_circuit(int which) {
  circuits::SyntheticParams params;
  params.num_phases = 2 + which % 3;
  params.num_stages = 4 + which % 4;
  params.latches_per_stage = 2 + which % 2;
  params.fanin = 2;
  params.extra_long_edges = which % 5;
  return circuits::synthetic_circuit(params, 1000 + static_cast<uint64_t>(which));
}

ClockSchedule schedule_from_json(const Json& s) {
  ClockSchedule out;
  out.cycle = s.num_or("cycle", 0.0);
  for (const Json& v : s.get("start").items()) out.start.push_back(v.as_number());
  for (const Json& v : s.get("width").items()) out.width.push_back(v.as_number());
  return out;
}

/// Bit-compare the served analysis payload against a direct check_schedule
/// of the mirror circuit. Returns a description of the first mismatch, or "".
std::string verify_against_local(const Json& result, const Circuit& mirror,
                                 const ClockSchedule& schedule) {
  sta::AnalysisOptions options;
  options.check_hold = true;
  const sta::TimingReport local = sta::check_schedule(mirror, schedule, options);
  if (result.bool_or("feasible", !local.feasible) != local.feasible) {
    return "feasible mismatch";
  }
  if (result.num_or("worst_setup_slack", local.worst_setup_slack + 1.0) !=
      local.worst_setup_slack) {
    return "worst_setup_slack not bit-identical";
  }
  const Json& elements = result.get("elements");
  if (static_cast<size_t>(elements.size()) != local.elements.size()) {
    return "element count mismatch";
  }
  for (size_t i = 0; i < local.elements.size(); ++i) {
    const Json& e = elements.at(i);
    if (e.num_or("departure", local.elements[i].departure + 1.0) !=
        local.elements[i].departure) {
      return "departure[" + std::to_string(i) + "] not bit-identical";
    }
    if (e.num_or("setup_slack", local.elements[i].setup_slack + 1.0) !=
        local.elements[i].setup_slack) {
      return "setup_slack[" + std::to_string(i) + "] not bit-identical";
    }
  }
  return "";
}

void run_stream(serve::Client& client, const LoadGenConfig& config, int stream,
                ThreadResult& tr) {
  // Returns the whole response envelope (null on error) so callers can see
  // the envelope-level trace echo and cost block next to the result.
  const auto timed_call = [&](Json request) -> Json {
    const std::string verb = request.str_or("verb");
    if (config.trace_sample > 0 || config.cost_sample > 0) {
      const long seq = g_request_seq.fetch_add(1);
      if (config.trace_sample > 0 && seq % config.trace_sample == 0) {
        request.set("trace", Json(serve::trace_id_hex(trace_id_for(seq))));
      }
      if (config.cost_sample > 0 && seq % config.cost_sample == 0 &&
          !request.get("cost").is_bool()) {  // an explicit false stays false
        request.set("cost", Json(true));
      }
    }
    const auto start = std::chrono::steady_clock::now();
    Expected<Json> response = client.call(std::move(request));
    const double us =
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
            .count();
    tr.latencies_us.push_back(us);
    tr.verb_latencies_us[verb].push_back(us);
    ++tr.requests;
    if (!response) {
      ++tr.errors;
      if (tr.first_error.empty()) tr.first_error = response.error().message;
      return Json();
    }
    if (!response->get("ok").as_bool(false)) {
      ++tr.errors;
      if (tr.first_error.empty()) tr.first_error = response->get("error").dump();
      return Json();
    }
    if (response->get("cached").as_bool(false)) ++tr.cache_hits;
    if (response->get("trace").is_string()) ++tr.traced;
    if (response->get("cost").is_object()) {
      ++tr.costed;
      tr.cost_cpu_us += response->get("cost").long_or("cpu_us", 0);
      tr.cost_relaxations += response->get("cost").long_or("relaxations", 0);
    }
    return std::move(*response);
  };

  const std::string key = "stream-" + std::to_string(stream);
  // The mirror must be the circuit AS THE SERVER SEES IT — i.e. parsed back
  // from the shipped .lct text (whose fixed-precision delay formatting need
  // not round-trip the synthetic doubles bit-exactly).
  const std::string text = parser::write_circuit(base_circuit(stream % config.circuits));
  Expected<Circuit> reparsed = parser::parse_circuit(text);
  if (!reparsed) {
    ++tr.errors;
    if (tr.first_error.empty()) tr.first_error = reparsed.error().to_string();
    return;
  }
  Circuit mirror = std::move(*reparsed);

  Json load = Json::object();
  load.set("verb", Json("load"));
  load.set("circuit", Json(key));
  load.set("text", Json(text));
  const Json loaded = timed_call(std::move(load));
  if (loaded.is_null()) return;
  const ClockSchedule schedule =
      schedule_from_json(loaded.get("result").get("schedule"));

  for (int round = 0; round < config.rounds; ++round) {
    // Deterministic perturbation: bump one path's max delay by a
    // binary-exact increment (mirrored locally for --verify).
    const int p = (stream * 7 + round * 13) % mirror.num_paths();
    const double delay = mirror.path(p).delay + 0.125;
    Json edit = Json::object();
    edit.set("op", Json("set_path_delay"));
    edit.set("path", Json(static_cast<long>(p)));
    edit.set("delay", Json(delay));
    Json edits = Json::array();
    edits.push(std::move(edit));
    Json batch = Json::object();
    batch.set("verb", Json("edit_batch"));
    batch.set("circuit", Json(key));
    batch.set("edits", std::move(edits));
    if (timed_call(std::move(batch)).is_null()) return;
    mirror.set_path_delay(p, delay);

    const auto make_analyze = [&] {
      Json analyze = Json::object();
      analyze.set("verb", Json("analyze"));
      analyze.set("circuit", Json(key));
      analyze.set("detail", Json(true));
      return analyze;
    };
    const Json response = timed_call(make_analyze());
    if (response.is_null()) return;
    const Json& result = response.get("result");
    if (config.verify) {
      const std::string mismatch = verify_against_local(result, mirror, schedule);
      if (!mismatch.empty()) {
        ++tr.verify_failures;
        if (tr.first_error.empty()) {
          tr.first_error = "verify: " + mismatch + " (stream " + std::to_string(stream) +
                           ", round " + std::to_string(round) + ")";
        }
      }
      if (response.get("cost").is_object()) {
        // Attribution is envelope-only: re-issue the identical analyze with
        // the cost block scrubbed (no "cost" field) and byte-compare the
        // result payloads. Any difference means attribution leaked into a
        // (cacheable) payload.
        Json again = make_analyze();
        again.set("cost", Json(false));
        const Json replay = timed_call(std::move(again));
        if (!replay.is_null()) {
          if (replay.get("cost").is_object()) {
            ++tr.verify_failures;
            if (tr.first_error.empty()) {
              tr.first_error = "verify: cost block echoed without \"cost\": true";
            }
          } else if (replay.get("result").dump() != result.dump()) {
            ++tr.verify_failures;
            if (tr.first_error.empty()) {
              tr.first_error = "verify: cost-bearing result payload differs from the "
                               "scrubbed replay (stream " +
                               std::to_string(stream) + ", round " +
                               std::to_string(round) + ")";
            }
          }
        }
      }
    }
  }
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[std::min(rank, sorted.size() - 1)];
}

int run_load_generator(const LoadGenConfig& config) {
  const auto wall_start = std::chrono::steady_clock::now();
  const int threads = std::max(1, std::min(config.threads, config.streams));
  std::vector<ThreadResult> results(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  std::atomic<int> next_stream{0};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      serve::Client client;
      const Expected<bool> connected = client.connect(config.address);
      ThreadResult& tr = results[static_cast<size_t>(t)];
      if (!connected) {
        ++tr.errors;
        tr.first_error = connected.error().message;
        return;
      }
      for (int s = next_stream.fetch_add(1); s < config.streams;
           s = next_stream.fetch_add(1)) {
        run_stream(client, config, s, tr);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  ThreadResult total;
  for (ThreadResult& tr : results) {
    total.requests += tr.requests;
    total.errors += tr.errors;
    total.cache_hits += tr.cache_hits;
    total.traced += tr.traced;
    total.verify_failures += tr.verify_failures;
    total.costed += tr.costed;
    total.cost_cpu_us += tr.cost_cpu_us;
    total.cost_relaxations += tr.cost_relaxations;
    total.latencies_us.insert(total.latencies_us.end(), tr.latencies_us.begin(),
                              tr.latencies_us.end());
    for (auto& [verb, v] : tr.verb_latencies_us) {
      std::vector<double>& dst = total.verb_latencies_us[verb];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    if (total.first_error.empty()) total.first_error = tr.first_error;
  }
  std::sort(total.latencies_us.begin(), total.latencies_us.end());
  const double p50 = percentile(total.latencies_us, 0.50);
  const double p95 = percentile(total.latencies_us, 0.95);
  const double p99 = percentile(total.latencies_us, 0.99);
  // The tail quantile comes from an obs::Histogram (same 1-2-5 latency
  // buckets as the server's serve.latency_us, interpolated inside the
  // bucket) so client- and server-side p99.9 are directly comparable.
  obs::Histogram aggregate(obs::latency_buckets_us());
  for (const double us : total.latencies_us) aggregate.observe(us);
  const double p999 = aggregate.quantile(0.999);
  const double rps = wall_s > 0 ? static_cast<double>(total.requests) / wall_s : 0.0;

  std::printf("%d streams x %d rounds over %d connection%s: %ld requests in %.2fs "
              "(%.0f req/s)\n",
              config.streams, config.rounds, threads, threads == 1 ? "" : "s",
              total.requests, wall_s, rps);
  std::printf("latency us: p50 %.0f  p95 %.0f  p99 %.0f  p99.9 %.0f  max %.0f\n", p50, p95,
              p99, p999, total.latencies_us.empty() ? 0.0 : total.latencies_us.back());
  for (const auto& [verb, v] : total.verb_latencies_us) {
    obs::Histogram h(obs::latency_buckets_us());
    for (const double us : v) h.observe(us);
    std::printf("  %-11s %6zu reqs  p50 %.0f  p95 %.0f  p99 %.0f  p99.9 %.0f\n",
                verb.c_str(), v.size(), h.quantile(0.50), h.quantile(0.95),
                h.quantile(0.99), h.quantile(0.999));
  }
  std::printf("errors %ld, cache hits %ld%s\n", total.errors, total.cache_hits,
              config.verify
                  ? (", verify failures " + std::to_string(total.verify_failures)).c_str()
                  : "");
  if (total.costed > 0) {
    std::printf("cost: %ld attributed responses, %ld us server cpu, %ld relaxations\n",
                total.costed, total.cost_cpu_us, total.cost_relaxations);
  }
  if (!total.first_error.empty()) {
    std::printf("first error: %s\n", total.first_error.c_str());
  }

  if (!config.out_path.empty()) {
    Json out = Json::object();
    out.set("streams", Json(static_cast<long>(config.streams)));
    out.set("rounds", Json(static_cast<long>(config.rounds)));
    out.set("connections", Json(static_cast<long>(threads)));
    out.set("requests", Json(total.requests));
    out.set("errors", Json(total.errors));
    out.set("cache_hits", Json(total.cache_hits));
    out.set("verify", Json(config.verify));
    out.set("verify_failures", Json(total.verify_failures));
    out.set("wall_seconds", Json(wall_s));
    out.set("requests_per_second", Json(rps));
    out.set("p50_us", Json(p50));
    out.set("p95_us", Json(p95));
    out.set("p99_us", Json(p99));
    out.set("p999_us", Json(p999));
    out.set("traced", Json(total.traced));
    out.set("costed", Json(total.costed));
    out.set("cost_cpu_us", Json(total.cost_cpu_us));
    out.set("cost_relaxations", Json(total.cost_relaxations));
    // Per-verb breakdown: interpolated quantiles over the shared latency
    // buckets (exact counts, approximate tails — see obs::Histogram).
    Json verbs = Json::object();
    for (const auto& [verb, v] : total.verb_latencies_us) {
      obs::Histogram h(obs::latency_buckets_us());
      for (const double us : v) h.observe(us);
      Json row = Json::object();
      row.set("count", Json(static_cast<long>(v.size())));
      row.set("p50_us", Json(h.quantile(0.50)));
      row.set("p95_us", Json(h.quantile(0.95)));
      row.set("p99_us", Json(h.quantile(0.99)));
      row.set("p999_us", Json(h.quantile(0.999)));
      row.set("max_us", Json(h.max()));
      verbs.set(verb, std::move(row));
    }
    out.set("verbs", std::move(verbs));
    std::ofstream f(config.out_path);
    if (f) {
      f << out.dump() << "\n";
      std::printf("wrote %s\n", config.out_path.c_str());
    }
  }

  if (!config.trace_out.empty()) {
    // Drain the server's sampled request records into a Chrome trace file:
    // each sampled request loads in chrome://tracing as one span holding
    // its stages.
    serve::Client drain;
    const Expected<bool> connected = drain.connect(config.address);
    Json req = Json::object();
    req.set("verb", Json("trace"));
    Expected<Json> response =
        connected ? drain.call(std::move(req)) : Expected<Json>(connected.error());
    if (response && response->get("ok").as_bool(false)) {
      const Json& result = response->get("result");
      std::ofstream f(config.trace_out);
      if (f) {
        f << result.str_or("content");
        std::printf("wrote %s (%ld events, %ld records dropped)\n", config.trace_out.c_str(),
                    result.long_or("events", 0), result.long_or("dropped", 0));
      }
    } else {
      std::fprintf(stderr, "warning: trace drain failed: %s\n",
                   response ? response->get("error").dump().c_str()
                            : response.error().to_string().c_str());
    }
  }
  return (total.errors == 0 && total.verify_failures == 0) ? 0 : 1;
}

int one_shot(const std::string& address, const std::string& request_text) {
  serve::Client client;
  const Expected<bool> connected = client.connect(address);
  if (!connected) {
    std::fprintf(stderr, "error: %s\n", connected.error().to_string().c_str());
    return 1;
  }
  const Expected<Json> request = serve::parse_json(request_text);
  if (!request) {
    std::fprintf(stderr, "error: %s\n", request.error().to_string().c_str());
    return 1;
  }
  Expected<Json> response = client.call(*request);
  if (!response) {
    std::fprintf(stderr, "error: %s\n", response.error().to_string().c_str());
    return 1;
  }
  std::printf("%s\n", response->dump().c_str());
  return response->get("ok").as_bool(false) ? 0 : 1;
}

int usage() {
  std::printf(
      "usage: timing_client --connect <unix:/path | host:port> [mode]\n"
      "  one-shot:  --req '<json>'   send one request, print the response\n"
      "             --stats          shorthand for --req '{\"verb\":\"stats\"}'\n"
      "  load gen:  [--streams N] [--rounds R] [--circuits K] [--threads T]\n"
      "             [--verify] [--out <file>]\n"
      "             [--trace-sample N]  attach a trace id to every Nth request\n"
      "             [--cost-sample N]   request cost attribution on every Nth request\n"
      "                                 (with --verify, byte-checks the envelope-only\n"
      "                                 contract against a scrubbed replay)\n"
      "             [--trace-out <file>]  after the run, write the server's sampled\n"
      "                                 request records (the trace verb) as a\n"
      "                                 Chrome trace\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  LoadGenConfig config;
  std::string req;
  bool stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--connect" && has_value) {
      config.address = argv[++i];
    } else if (arg == "--req" && has_value) {
      req = argv[++i];
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--streams" && has_value) {
      config.streams = std::atoi(argv[++i]);
    } else if (arg == "--rounds" && has_value) {
      config.rounds = std::atoi(argv[++i]);
    } else if (arg == "--circuits" && has_value) {
      config.circuits = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--threads" && has_value) {
      config.threads = std::atoi(argv[++i]);
    } else if (arg == "--verify") {
      config.verify = true;
    } else if (arg == "--trace-sample" && has_value) {
      config.trace_sample = std::max(0, std::atoi(argv[++i]));
    } else if (arg == "--cost-sample" && has_value) {
      config.cost_sample = std::max(0, std::atoi(argv[++i]));
    } else if (arg == "--trace-out" && has_value) {
      config.trace_out = argv[++i];
    } else if (arg == "--out" && has_value) {
      config.out_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (config.address.empty()) return usage();
  if (stats) return one_shot(config.address, "{\"verb\":\"stats\"}");
  if (!req.empty()) return one_shot(config.address, req);
  if (config.streams < 1 || config.rounds < 1) return usage();
  return run_load_generator(config);
}
