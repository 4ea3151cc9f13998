// Latency-SLO benchmark for the timing-analysis service.
//
// Drives TimingService::handle_line directly (the same entry point the
// socket server dispatches to), so the numbers cover request parse ->
// session/cache lookup -> analysis -> response encode, without socket noise.
//
// Two lanes per (circuit, verb) case:
//   cold  — result cache DISABLED (cache_bytes = 0): every request pays the
//           full analysis/report/sweep compute on the warm session;
//   warm  — default cache, primed by one pass: every request is a content-
//           fingerprint cache hit.
// Exact p50/p95/p99 per lane over --iters requests, plus a mixed
// multi-threaded edit+analyze throughput lane on a fresh service.
//
// Writes BENCH_serve.json (BENCH_overhead.json in --overhead-check mode;
// --out <path> overrides). --small shrinks the iteration counts for CI
// smoke runs; --check gates the acceptance criterion: per circuit, the warm
// cache serves the request mix at least 5x faster (sum of p50s) than
// recomputation, and cached responses are identical to recomputed ones
// modulo wall-clock metadata fields.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/table.h"
#include "circuits/synthetic.h"
#include "obs/export.h"
#include "parser/lct.h"
#include "serve/json.h"
#include "serve/service.h"

using namespace mintc;
using serve::Json;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Percentiles {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
};

Percentiles percentiles_us(std::vector<double>& us) {
  Percentiles p;
  if (us.empty()) return p;
  std::sort(us.begin(), us.end());
  const auto at = [&](double q) {
    const size_t rank = static_cast<size_t>(q * static_cast<double>(us.size() - 1));
    return us[std::min(rank, us.size() - 1)];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  p.max = us.back();
  return p;
}

Circuit bench_circuit(int which) {
  circuits::SyntheticParams params;
  params.num_phases = 2 + which % 2;
  params.num_stages = 8 + 4 * which;
  params.latches_per_stage = 4;
  params.fanin = 3;
  params.extra_long_edges = 2;
  return circuits::synthetic_circuit(params, 7000 + static_cast<uint64_t>(which));
}

struct BenchCase {
  std::string circuit;  // key + label
  std::string verb;     // analyze | report | sweep
  std::string request;  // rendered request line (without id)
};

struct LaneResult {
  Percentiles latency;
  std::string first_response;  // for cross-lane identity checks
};

struct CaseResult {
  BenchCase spec;
  int elements = 0;
  LaneResult cold;
  LaneResult warm;
  double speedup_p50 = 0.0;
  bool identical = true;
};

std::string strip_envelope(const std::string& frame) {
  // Responses differ only in the (absent) id and the cached flag across
  // lanes; compare the result payload.
  const Expected<Json> parsed =
      serve::parse_json(std::string_view(frame).substr(0, frame.size() - 1));
  if (!parsed) return "<unparseable>";
  return parsed->get("result").dump();
}

// Report payloads embed wall-clock fields (RunMetadata.wall_seconds is
// stamped at export time, SlackDB.build_seconds measures the build) that are
// legitimately different across lanes. Blank the number after any
// "*seconds": key — escaped inside the embedded report string or not — so
// the cross-lane identity check covers the timing content only.
std::string scrub_volatile(std::string payload) {
  size_t pos = 0;
  while ((pos = payload.find("seconds", pos)) != std::string::npos) {
    size_t p = pos + 7;
    while (p < payload.size() &&
           (payload[p] == '\\' || payload[p] == '"' || payload[p] == ':' ||
            payload[p] == ' ')) {
      ++p;
    }
    const size_t num_start = p;
    while (p < payload.size() &&
           (std::isdigit(static_cast<unsigned char>(payload[p])) || payload[p] == '.' ||
            payload[p] == 'e' || payload[p] == 'E' || payload[p] == '+' ||
            payload[p] == '-')) {
      ++p;
    }
    if (p > num_start) payload.replace(num_start, p - num_start, "0");
    pos += 7;
  }
  return payload;
}

LaneResult run_lane(serve::TimingService& service, const std::string& request, int iters) {
  LaneResult lane;
  std::vector<double> us;
  us.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const double start = now_seconds();
    const std::string frame = service.handle_line(request);
    us.push_back((now_seconds() - start) * 1e6);
    if (i == 0) {
      lane.first_response = strip_envelope(frame);
    }
  }
  lane.latency = percentiles_us(us);
  return lane;
}

void load_into(serve::TimingService& service, const std::string& key,
               const std::string& text) {
  Json load = Json::object();
  load.set("verb", Json("load"));
  load.set("circuit", Json(key));
  load.set("text", Json(text));
  const Json response = service.handle(load);
  if (!response.get("ok").as_bool(false)) {
    std::fprintf(stderr, "load %s failed: %s\n", key.c_str(), response.dump().c_str());
    std::exit(1);
  }
}

struct Throughput {
  long requests = 0;
  double seconds = 0.0;
  double requests_per_second = 0.0;
  Percentiles latency;
};

/// Mixed edit+analyze traffic from `threads` workers over `streams` circuit
/// keys on a fresh default-config service — the serving hot path end to end.
Throughput run_throughput(int threads, int streams, int rounds) {
  serve::TimingService service;
  std::vector<std::string> texts;
  for (int s = 0; s < streams; ++s) {
    texts.push_back(parser::write_circuit(bench_circuit(s % 4)));
    load_into(service, "tp-" + std::to_string(s), texts.back());
  }
  std::vector<std::vector<double>> lat(static_cast<size_t>(threads));
  std::atomic<int> next{0};
  const double start = now_seconds();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int s = next.fetch_add(1); s < streams; s = next.fetch_add(1)) {
        const std::string key = "tp-" + std::to_string(s);
        for (int round = 0; round < rounds; ++round) {
          Json edit = Json::object();
          edit.set("op", Json("set_path_delay"));
          edit.set("path", Json(static_cast<long>(round % 7)));
          edit.set("delay", Json(5.0 + round * 0.125));
          Json edits = Json::array();
          edits.push(std::move(edit));
          Json batch = Json::object();
          batch.set("verb", Json("edit_batch"));
          batch.set("circuit", Json(key));
          batch.set("edits", std::move(edits));
          Json analyze = Json::object();
          analyze.set("verb", Json("analyze"));
          analyze.set("circuit", Json(key));
          for (const Json* request : {&batch, &analyze}) {
            const double t0 = now_seconds();
            const std::string frame = service.handle_line(request->dump());
            lat[static_cast<size_t>(t)].push_back((now_seconds() - t0) * 1e6);
            if (frame.find("\"ok\":true") == std::string::npos) {
              std::fprintf(stderr, "throughput request failed: %s", frame.c_str());
              std::exit(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  Throughput tp;
  tp.seconds = now_seconds() - start;
  std::vector<double> all;
  for (const std::vector<double>& v : lat) all.insert(all.end(), v.begin(), v.end());
  tp.requests = static_cast<long>(all.size());
  tp.requests_per_second =
      tp.seconds > 0 ? static_cast<double>(tp.requests) / tp.seconds : 0.0;
  tp.latency = percentiles_us(all);
  return tp;
}

/// Cacheable request set: per circuit, one analyze (detail), one signoff
/// report and one 5-point sweep.
void build_cases(std::vector<BenchCase>& cases,
                 std::vector<std::pair<std::string, std::string>>& loads) {
  for (int which = 0; which < 2; ++which) {
    const std::string key = "c" + std::to_string(which);
    loads.emplace_back(key, parser::write_circuit(bench_circuit(which)));
    cases.push_back({key, "analyze",
                     R"({"verb":"analyze","circuit":")" + key + R"(","detail":true})"});
    cases.push_back({key, "report",
                     R"({"verb":"report","circuit":")" + key +
                         R"(","format":"json","signoff":true})"});
    cases.push_back({key, "sweep",
                     R"({"verb":"sweep","circuit":")" + key +
                         R"(","from":1.0,"to":1.4,"steps":5})"});
  }
}

/// --overhead-check: price of telemetry on the unsampled hot path.
///
/// Three cache-off services (every request pays full compute):
///   off   — ServiceConfig::telemetry = false: the bare protocol;
///   on    — default telemetry, no trace field, cost not requested: what
///           production pays for unsampled traffic — metric increments, the
///           latency/cpu/relaxations observes, the stage clock reads, the
///           CostAccount charges and the in-flight gauge;
///   full  — telemetry on AND every request opting into the "cost" echo:
///           attribution plus the echo, the everything-on diagnostic
///           posture.
/// Reps alternate lanes so clock drift and thermal state hit all sides
/// equally, and each side keeps its MINIMUM per-rep p50 (the least-noisy
/// estimate of intrinsic cost). Gates: the request-mix p50 sum of "on" AND
/// of "full" must each be within 5% of "off". Emits BENCH_overhead.json
/// (--out overrides) with the gated off/on and off/full ratios so
/// bench_compare can watch them against the committed baseline.
int run_overhead_check(bool small, const std::string& out) {
  const int iters = small ? 20 : 100;
  const int reps = small ? 3 : 5;

  std::vector<BenchCase> cases;
  std::vector<std::pair<std::string, std::string>> loads;
  build_cases(cases, loads);

  serve::ServiceConfig off_config;
  off_config.cache_bytes = 0;
  off_config.telemetry = false;
  serve::TimingService off_service(off_config);
  serve::ServiceConfig on_config;
  on_config.cache_bytes = 0;  // telemetry stays at its default (on)
  serve::TimingService on_service(on_config);
  serve::TimingService full_service(on_config);
  for (const auto& [key, text] : loads) {
    load_into(off_service, key, text);
    load_into(on_service, key, text);
    load_into(full_service, key, text);
  }
  const auto with_cost = [](const std::string& request) {
    return request.substr(0, request.size() - 1) + R"(,"cost":true})";
  };
  for (const BenchCase& spec : cases) {  // warm sessions + code paths
    (void)run_lane(off_service, spec.request, 2);
    (void)run_lane(on_service, spec.request, 2);
    (void)run_lane(full_service, with_cost(spec.request), 2);
  }

  std::printf(
      "== serve: telemetry overhead (unsampled, cache off, min of %d reps) ==\n", reps);
  TextTable table({"case", "off p50 us", "on p50 us", "full p50 us", "on", "full"});
  struct CaseRow {
    const BenchCase* spec;
    double off = 0.0, on = 0.0, full = 0.0;
  };
  std::vector<CaseRow> rows;
  double off_total = 0.0, on_total = 0.0, full_total = 0.0;
  for (const BenchCase& spec : cases) {
    CaseRow row;
    row.spec = &spec;
    const std::string full_request = with_cost(spec.request);
    for (int rep = 0; rep < reps; ++rep) {
      const double off_p50 = run_lane(off_service, spec.request, iters).latency.p50;
      const double on_p50 = run_lane(on_service, spec.request, iters).latency.p50;
      const double full_p50 = run_lane(full_service, full_request, iters).latency.p50;
      if (rep == 0 || off_p50 < row.off) row.off = off_p50;
      if (rep == 0 || on_p50 < row.on) row.on = on_p50;
      if (rep == 0 || full_p50 < row.full) row.full = full_p50;
    }
    off_total += row.off;
    on_total += row.on;
    full_total += row.full;
    char offs[32], ons[32], fulls[32], ov_on[32], ov_full[32];
    std::snprintf(offs, sizeof offs, "%.1f", row.off);
    std::snprintf(ons, sizeof ons, "%.1f", row.on);
    std::snprintf(fulls, sizeof fulls, "%.1f", row.full);
    std::snprintf(ov_on, sizeof ov_on, "%+.2f%%",
                  row.off > 0 ? 100.0 * (row.on / row.off - 1.0) : 0.0);
    std::snprintf(ov_full, sizeof ov_full, "%+.2f%%",
                  row.off > 0 ? 100.0 * (row.full / row.off - 1.0) : 0.0);
    table.add_row({spec.circuit + "/" + spec.verb, offs, ons, fulls, ov_on, ov_full});
    rows.push_back(row);
  }
  std::printf("%s\n", table.to_string().c_str());

  const double on_overhead = off_total > 0 ? on_total / off_total - 1.0 : 0.0;
  const double full_overhead = off_total > 0 ? full_total / off_total - 1.0 : 0.0;
  std::printf("request-mix p50 sum: off %.1fus, on %.1fus (%+.2f%%), "
              "full %.1fus (%+.2f%%)  (gate: each <= 5%%)\n",
              off_total, on_total, 100.0 * on_overhead, full_total,
              100.0 * full_overhead);

  // Emit the lane sums and the gated RATIOS (off/on, off/full — both drop
  // when overhead grows, so bench_compare's higher-better gate watches them).
  std::ofstream json(out);
  json << "{\"meta\": " << obs::run_metadata_json(obs::run_metadata())
       << ", \"iters\": " << iters << ", \"reps\": " << reps << ", \"cases\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i) json << ", ";
    json << "{\"circuit\": \"" << rows[i].spec->circuit << "\", \"verb\": \""
         << rows[i].spec->verb << "\", \"off_p50_us\": " << obs::json_number(rows[i].off)
         << ", \"on_p50_us\": " << obs::json_number(rows[i].on)
         << ", \"full_p50_us\": " << obs::json_number(rows[i].full) << "}";
  }
  json << "], \"mix\": {\"off_p50_sum_us\": " << obs::json_number(off_total)
       << ", \"on_p50_sum_us\": " << obs::json_number(on_total)
       << ", \"full_p50_sum_us\": " << obs::json_number(full_total)
       << ", \"telemetry_speedup\": "
       << obs::json_number(on_total > 0 ? off_total / on_total : 0.0)
       << ", \"attribution_speedup\": "
       << obs::json_number(full_total > 0 ? off_total / full_total : 0.0) << "}}\n";
  json.close();
  std::printf("wrote %s\n", out.c_str());

  int rc = 0;
  if (on_overhead > 0.05) {
    std::fprintf(stderr,
                 "FAIL: unsampled telemetry overhead %.2f%% exceeds the 5%% gate\n",
                 100.0 * on_overhead);
    rc = 1;
  }
  if (full_overhead > 0.05) {
    std::fprintf(stderr,
                 "FAIL: attribution+cost-echo overhead %.2f%% exceeds the 5%% gate\n",
                 100.0 * full_overhead);
    rc = 1;
  }
  return rc;
}

std::string pct_json(const Percentiles& p) {
  std::string out = "{\"p50_us\": " + obs::json_number(p.p50);
  out += ", \"p95_us\": " + obs::json_number(p.p95);
  out += ", \"p99_us\": " + obs::json_number(p.p99);
  out += ", \"max_us\": " + obs::json_number(p.max) + "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  bool check = false;
  bool overhead_check = false;
  std::string out;  // defaults depend on the mode, resolved below
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--overhead-check") == 0) {
      overhead_check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--small] [--check] [--overhead-check] "
                   "[--out <file>]\n");
      return 2;
    }
  }
  if (out.empty()) out = overhead_check ? "BENCH_overhead.json" : "BENCH_serve.json";
  if (overhead_check) return run_overhead_check(small, out);
  const int iters = small ? 30 : 200;

  std::vector<BenchCase> cases;
  std::vector<std::pair<std::string, std::string>> loads;  // key -> text
  build_cases(cases, loads);

  serve::ServiceConfig cold_config;
  cold_config.cache_bytes = 0;
  serve::TimingService cold_service(cold_config);
  serve::TimingService warm_service;
  for (const auto& [key, text] : loads) {
    load_into(cold_service, key, text);
    load_into(warm_service, key, text);
  }

  std::vector<CaseResult> results;
  for (const BenchCase& spec : cases) {
    CaseResult r;
    r.spec = spec;
    r.cold = run_lane(cold_service, spec.request, iters);
    (void)run_lane(warm_service, spec.request, 1);  // prime the cache
    r.warm = run_lane(warm_service, spec.request, iters);
    r.speedup_p50 = r.warm.latency.p50 > 0 ? r.cold.latency.p50 / r.warm.latency.p50 : 0.0;
    r.identical =
        scrub_volatile(r.cold.first_response) == scrub_volatile(r.warm.first_response);
    results.push_back(std::move(r));
  }

  std::vector<std::pair<std::string, double>> mix_speedups;
  for (const auto& [key, text] : loads) {
    (void)text;
    double cold_sum = 0.0, warm_sum = 0.0;
    for (const CaseResult& r : results) {
      if (r.spec.circuit != key) continue;
      cold_sum += r.cold.latency.p50;
      warm_sum += r.warm.latency.p50;
    }
    mix_speedups.emplace_back(key, warm_sum > 0 ? cold_sum / warm_sum : 0.0);
  }

  const Throughput tp = run_throughput(small ? 4 : 8, small ? 16 : 64, small ? 4 : 10);

  std::printf("== serve: result-cache latency (cold = cache off, warm = cache hit) ==\n");
  TextTable table({"case", "cold p50 us", "cold p99 us", "warm p50 us",
                   "warm p99 us", "speedup", "identical"});
  for (const CaseResult& r : results) {
    char c50[32], c99[32], w50[32], w99[32], sp[32];
    std::snprintf(c50, sizeof c50, "%.1f", r.cold.latency.p50);
    std::snprintf(c99, sizeof c99, "%.1f", r.cold.latency.p99);
    std::snprintf(w50, sizeof w50, "%.1f", r.warm.latency.p50);
    std::snprintf(w99, sizeof w99, "%.1f", r.warm.latency.p99);
    std::snprintf(sp, sizeof sp, "%.1fx", r.speedup_p50);
    table.add_row({r.spec.circuit + "/" + r.spec.verb, c50, c99, w50, w99, sp,
                   r.identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("mixed edit+analyze throughput: %ld requests in %.2fs (%.0f req/s), "
              "p50 %.0fus p95 %.0fus p99 %.0fus\n",
              tp.requests, tp.seconds, tp.requests_per_second, tp.latency.p50,
              tp.latency.p95, tp.latency.p99);

  std::ofstream json(out);
  json << "{\"meta\": " << obs::run_metadata_json(obs::run_metadata())
       << ", \"iters\": " << iters << ", \"cases\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    if (i) json << ", ";
    json << "{\"circuit\": \"" << r.spec.circuit << "\", \"verb\": \"" << r.spec.verb
         << "\", \"cold\": " << pct_json(r.cold.latency)
         << ", \"warm\": " << pct_json(r.warm.latency)
         << ", \"speedup_p50\": " << obs::json_number(r.speedup_p50)
         << ", \"identical\": " << (r.identical ? "true" : "false") << "}";
  }
  json << "], \"mix_speedups\": {";
  for (size_t i = 0; i < mix_speedups.size(); ++i) {
    if (i) json << ", ";
    json << "\"" << mix_speedups[i].first
         << "\": " << obs::json_number(mix_speedups[i].second);
  }
  json << "}, \"throughput\": {\"requests\": " << tp.requests
       << ", \"wall_seconds\": " << obs::json_number(tp.seconds)
       << ", \"requests_per_second\": " << obs::json_number(tp.requests_per_second)
       << ", \"latency\": " << pct_json(tp.latency) << "}}\n";
  json.close();
  std::printf("wrote %s\n", out.c_str());

  int rc = 0;
  for (const CaseResult& r : results) {
    if (!r.identical) {
      std::fprintf(stderr, "FAIL: %s/%s cached response differs from recomputed one\n",
                   r.spec.circuit.c_str(), r.spec.verb.c_str());
      rc = 1;
    }
  }
  // Acceptance gate: per circuit, the warm cache must serve the full request
  // mix (analyze + signoff report + sweep) at least 5x faster than
  // recomputation. Per-case speedups above are informational — a bare
  // analyze on an already-warm session is cheap enough that a cache hit is
  // only a marginal win, while the mix is dominated by the expensive verbs
  // the cache exists for.
  for (const auto& [key, mix] : mix_speedups) {
    std::printf("%s request-mix speedup (sum of p50s): %.1fx\n", key.c_str(), mix);
    if (check && mix < 5.0) {
      std::fprintf(stderr,
                   "FAIL: %s warm-cache request-mix speedup %.2fx below the 5x gate\n",
                   key.c_str(), mix);
      rc = 1;
    }
  }
  return rc;
}
