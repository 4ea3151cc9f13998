#include "ledger.h"

#include <cstdio>
#include <fstream>
#include <numeric>

namespace svcbench {

namespace {

/// One row of the per-layer table: the metric, its unit, and the
/// end-to-end metric it should move on which workload.
struct Row {
  const char* name;
  const char* unit;
  const char* moves;
  const char* on;
};

// The metric -> layer -> workload table of DESIGN.md, plus the sta.edit /
// sta.undo / sta.session_build / parser.write_schedule spans that only serve
// to attribute request time.
constexpr Row kRows[] = {
    {"serve.load.ms", "ms", "setup_s", "all"},
    {"serve.edit_batch.ms", "ms", "p50_ms / p95_ms", "eco_loop"},
    {"serve.analyze.ms", "ms", "p50_ms / p95_ms", "eco_loop, dashboard_read"},
    {"serve.report.ms", "ms", "p50_ms / p95_ms", "dashboard_read"},
    {"serve.sweep.ms", "ms", "p50_ms / p95_ms", "dashboard_read"},
    {"serve.min.ms", "ms", "p50_ms / p95_ms", "schedule_design"},
    {"serve.undo.ms", "ms", "requests_per_second", "eco_loop"},
    {"serve.parse_request.ms", "ms", "requests_per_second", "dashboard_read"},
    {"serve.encode_frame.ms", "ms", "requests_per_second", "dashboard_read"},
    {"serve.response_bytes", "bytes", "requests_per_second", "dashboard_read"},
    {"serve.hit_decode.ms", "ms", "p50_ms", "dashboard_read"},
    {"serve.cache_hit_ratio", "ratio", "p50_ms", "dashboard_read (about 0.9)"},
    {"serve.unattributed_share", "ratio", "requests_per_second", "all"},
    {"parser.parse_circuit.ms", "ms", "setup_s", "all"},
    {"parser.parse_schedule.ms", "ms", "setup_s", "eco_loop, dashboard_read"},
    {"parser.write_schedule.ms", "ms", "p50_ms", "schedule_design"},
    {"model.validate.ms", "ms", "p50_ms; setup_s", "eco_loop; all"},
    {"model.timing_view_build.ms", "ms", "setup_s; p95_ms", "all; eco_loop"},
    {"sta.session_build.ms", "ms", "setup_s", "all"},
    {"sta.edit.ms", "ms", "p50_ms", "eco_loop"},
    {"sta.undo.ms", "ms", "requests_per_second", "eco_loop"},
    {"sta.fingerprint.ms", "ms", "p50_ms", "eco_loop"},
    {"sta.analyze_warm.ms", "ms", "p50_ms", "eco_loop"},
    {"sta.analyze_cold.ms", "ms", "p95_ms", "eco_loop"},
    {"sta.warm_hit_ratio", "ratio", "p50_ms", "eco_loop"},
    {"sta.sweeps", "count", "p50_ms", "eco_loop"},
    {"sta.edge_relaxations", "count", "p50_ms", "eco_loop"},
    {"opt.generate_lp.ms", "ms", "p50_ms, setup_s", "schedule_design"},
    {"opt.lp_rows", "count", "p50_ms, setup_s", "schedule_design"},
    {"lp.simplex.ms", "ms", "p50_ms, p95_ms, setup_s", "schedule_design"},
    {"lp.pivots", "count", "p50_ms, p95_ms, setup_s", "schedule_design"},
    {"opt.mlp.ms", "ms", "p50_ms", "schedule_design"},
    {"opt.graph_solver.ms", "ms", "p50_ms (reference for the size crossover)", "schedule_design"},
    {"report.build_slackdb.ms", "ms", "p95_ms", "dashboard_read"},
    {"report.build_signoff.ms", "ms", "p95_ms", "dashboard_read"},
    {"report.render_json.ms", "ms", "p95_ms", "dashboard_read"},
    {"report.render_table.ms", "ms", "p95_ms", "dashboard_read"},
    {"report.render_html.ms", "ms", "p95_ms", "dashboard_read"},
};

// The per_layer metrics of BENCHMARK.json: the rows every workload
// exercises, so each one is measured (never a placeholder) on every run.
constexpr const char* kBenchmarkRows[] = {
    "serve.load.ms",           "serve.edit_batch.ms",      "serve.analyze.ms",
    "serve.parse_request.ms",  "serve.encode_frame.ms",    "serve.response_bytes",
    "serve.unattributed_share", "parser.parse_circuit.ms", "model.validate.ms",
    "model.timing_view_build.ms", "sta.fingerprint.ms",   "sta.analyze_cold.ms",
    "sta.sweeps",              "sta.edge_relaxations",
};

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct Share {
  double total = 0.0;       // request span seconds
  double attributed = 0.0;  // seconds of their replayed children
  long requests = 0;
  double unattributed() const { return total > 0.0 ? 1.0 - attributed / total : 0.0; }
};

struct Value {
  double value = 0.0;
  long base = 0;  // samples (for ratios: the denominator)
};

}  // namespace

Json Ledger::finish(const std::string& workload, const Overhead& overhead,
                    const std::string& file_stem) const {
  const std::vector<Span>& all = spans.spans();
  std::vector<double> child_seconds(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0) child_seconds[static_cast<size_t>(s.parent)] += s.seconds();
  }
  std::map<std::string, std::vector<double>> ms, self_ms;
  std::map<std::string, Share> verbs;
  Share overall;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    ms[s.name].push_back(s.seconds() * 1e3);
    self_ms[s.name].push_back((s.seconds() - child_seconds[i]) * 1e3);
    if (s.parent < 0 && s.name.rfind("serve.", 0) == 0) {
      for (Share* share : {&verbs[s.name.substr(6)], &overall}) {
        share->total += s.seconds();
        share->attributed += child_seconds[i];
        ++share->requests;
      }
    }
  }

  const auto samples = [&](const std::string& key) -> const std::vector<double>& {
    static const std::vector<double> none;
    const auto it = counts_.find(key);
    return it == counts_.end() ? none : it->second;
  };
  const auto lookup = [&](const std::string& name) -> Value {
    if (name == "serve.unattributed_share") return {overall.unattributed(), overall.requests};
    if (name == "serve.cache_hit_ratio" || name == "sta.warm_hit_ratio") {
      const std::vector<double>& v =
          samples(name == "serve.cache_hit_ratio" ? "serve.cache_hit" : "sta.warm");
      return {mean(v), static_cast<long>(v.size())};
    }
    if (ends_with(name, ".ms")) {
      const auto it = ms.find(name.substr(0, name.size() - 3));
      if (it == ms.end()) return {};
      return {quantile(it->second, 0.5), static_cast<long>(it->second.size())};
    }
    const std::vector<double>& v = samples(name);
    if (name == "sta.sweeps" || name == "sta.edge_relaxations") {
      return {mean(v), static_cast<long>(v.size())};
    }
    return {quantile(v, 0.5), static_cast<long>(v.size())};
  };

  std::printf("\nper-layer ledger (traced run; times are medians per call, counts are "
              "medians per call except sweeps/relaxations, which are means per analyze)\n");
  std::printf("  %-28s %14s %-6s %8s  %-28s %s\n", "metric", "value", "unit", "base",
              "should move", "on workload");
  Json table = Json::array();
  for (const Row& row : kRows) {
    const Value v = lookup(row.name);
    if (v.base == 0) {
      std::printf("  %-28s %14s %-6s %8s  %-28s %s\n", row.name, "n/a", row.unit, "0",
                  row.moves, row.on);
    } else {
      std::printf("  %-28s %14.6g %-6s %8ld  %-28s %s\n", row.name, v.value, row.unit, v.base,
                  row.moves, row.on);
    }
    Json entry = Json::object();
    entry.set("name", Json(row.name));
    entry.set("unit", Json(row.unit));
    entry.set("value", v.base == 0 ? Json() : Json(v.value));
    entry.set("base", Json(v.base));
    entry.set("moves", Json(row.moves));
    entry.set("on", Json(row.on));
    table.push(std::move(entry));
  }
  std::printf("  n/a: this workload's traffic never calls that layer (no such verb, or "
              "every such request was a cache hit).\n");
  if (ms.count("opt.mlp") != 0) {
    std::printf("  opt.mlp slide (self time = mlp - generate_lp - simplex): %.6g ms median\n",
                quantile(self_ms["opt.mlp"], 0.5));
  }

  std::printf("\nunattributed remainder per verb (1 - replayed layer time / handle_line time)\n");
  std::printf("  %-12s %8s %14s %14s %12s\n", "verb", "requests", "handle_line s",
              "replayed s", "unattributed");
  Json by_verb = Json::object();
  for (const auto& [verb, share] : verbs) {
    std::printf("  %-12s %8ld %14.6f %14.6f %12.4f\n", verb.c_str(), share.requests, share.total,
                share.attributed, share.unattributed());
    Json entry = Json::object();
    entry.set("requests", Json(share.requests));
    entry.set("handle_line_seconds", Json(share.total));
    entry.set("replayed_seconds", Json(share.attributed));
    entry.set("unattributed_share", Json(share.unattributed()));
    by_verb.set(verb, std::move(entry));
  }

  std::printf("\nspan self time (duration minus replayed children)\n");
  std::printf("  %-28s %8s %14s %14s\n", "span", "count", "median ms", "median self ms");
  for (const auto& [name, values] : ms) {
    std::printf("  %-28s %8zu %14.6g %14.6g\n", name.c_str(), values.size(),
                quantile(values, 0.5), quantile(self_ms[name], 0.5));
  }

  const double overhead_share =
      overhead.untraced_rps > 0.0 ? 1.0 - overhead.traced_rps / overhead.untraced_rps : 0.0;
  std::printf("\ntracing overhead: untraced %.2f req/s, traced %.2f req/s over the first %ld "
              "loop requests of each pass: %.2f%%\n",
              overhead.untraced_rps, overhead.traced_rps, overhead.requests,
              100.0 * overhead_share);

  if (!file_stem.empty()) {
    const std::string trace_path = file_stem + ".trace.json";
    const std::string ledger_path = file_stem + ".ledger.json";
    Json doc = Json::object();
    doc.set("workload", Json(workload));
    doc.set("metrics", std::move(table));
    doc.set("unattributed_by_verb", std::move(by_verb));
    Json ov = Json::object();
    ov.set("untraced_rps", Json(overhead.untraced_rps));
    ov.set("traced_rps", Json(overhead.traced_rps));
    ov.set("requests", Json(overhead.requests));
    ov.set("share", Json(overhead_share));
    doc.set("tracing_overhead", std::move(ov));
    std::ofstream out(ledger_path);
    out << doc.dump() << "\n";
    if (out && spans.write_chrome_trace(trace_path)) {
      std::printf("wrote %s and %s (%zu spans)\n", ledger_path.c_str(), trace_path.c_str(),
                  all.size());
    } else {
      std::fprintf(stderr, "svcbench: could not write %s\n", file_stem.c_str());
    }
  }

  Json metrics = Json::object();
  for (const char* name : kBenchmarkRows) {
    const Value v = lookup(name);
    if (v.base == 0) std::fprintf(stderr, "svcbench: per-layer metric %s has no samples\n", name);
    const char* unit = "";
    for (const Row& r : kRows) {
      if (std::string(r.name) == name) unit = r.unit;
    }
    Json m = Json::object();
    m.set("value", Json(v.value));
    m.set("unit", Json(unit));
    metrics.set(name, std::move(m));
  }
  return metrics;
}

}  // namespace svcbench
