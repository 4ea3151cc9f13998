// bench_compare — the perf-regression watchdog over BENCH_*.json artifacts.
//
//   bench_compare <baseline.json> <candidate.json>
//       [--tolerance 0.15] [--time-tolerance 0.25] [--out verdict.json]
//
// Both inputs are bench emissions (BENCH_view / BENCH_incremental /
// BENCH_serve / BENCH_overhead, or any JSON with numeric leaves). Every
// numeric leaf is flattened to a dotted path; array elements carrying
// identity fields (circuit/verb/name/case/scheme) are keyed by those fields
// instead of their index, so reordered cases still line up:
//
//   cases[circuit=c0,verb=analyze].speedup_p50
//   cases[name=datapath-8x32].view_relax_per_sec
//
// Metrics are classified by their final path segment:
//   * RATIO (higher-better, GATED by --tolerance): *speedup*, *per_sec*,
//     *per_second*, *hit_rate*, *utilization* — dimensionless or
//     rate-normalized numbers that are comparable across machines. A drop
//     of more than --tolerance (default 15%) is a regression.
//   * TIME (lower-better): *_us, *_ms, *seconds — absolute wall times are
//     NOT comparable across machines, so they are informational by default
//     and only gated when --time-tolerance is passed explicitly (same-host
//     A/B runs, e.g. the baseline-refresh script).
//   * INFO: everything else (counts, sizes) — reported, never gated.
//
// The "meta" header and embedded "metrics" registry dumps are skipped:
// wall clocks and rep-dependent counters are noise, not performance.
//
// A RATIO metric present in the baseline but missing from the candidate is
// a failure (schema rot must not silently disable the gate). Exit status:
// 0 = within tolerance, 1 = regressions (or missing gated metrics),
// 2 = usage/IO/parse error. --out writes a machine-readable verdict JSON.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/json.h"

using namespace mintc;
using serve::Json;

namespace {

enum class Direction { kRatio, kTime, kInfo };

Direction classify(const std::string& path) {
  // A time-unit suffix on the LEAF wins ("throughput.latency.p50_us" is a
  // time metric even though the subtree is rate-flavored); otherwise a ratio
  // keyword ANYWHERE in the path counts, so values keyed under a ratio group
  // ("mix_speedups.c0") are gated too.
  const size_t dot = path.rfind('.');
  const std::string leaf = dot == std::string::npos ? path : path.substr(dot + 1);
  const auto suffix = [&](const char* s) {
    const size_t n = std::strlen(s);
    return leaf.size() > n && leaf.compare(leaf.size() - n, n, s) == 0;
  };
  if (suffix("_us") || suffix("_ms")) return Direction::kTime;
  if (leaf.find("seconds") != std::string::npos) return Direction::kTime;
  const auto has = [&](const char* needle) {
    return path.find(needle) != std::string::npos;
  };
  if (has("speedup") || has("per_sec") || has("per_second") || has("hit_rate") ||
      has("utilization")) {
    return Direction::kRatio;
  }
  return Direction::kInfo;
}

/// Stable identity for an array element: prefer the conventional identity
/// fields over the index so reordered/extended case lists still align.
std::string element_key(const Json& v, size_t index) {
  if (v.is_object()) {
    std::string key;
    for (const char* field : {"circuit", "verb", "name", "case", "scheme"}) {
      if (!v.has(field)) continue;
      const Json& id = v.get(field);
      std::string part;
      if (id.is_string()) {
        part = id.as_string();
      } else if (id.is_number()) {
        std::ostringstream os;
        os << id.as_number();
        part = os.str();
      } else {
        continue;
      }
      if (!key.empty()) key += ",";
      key += std::string(field) + "=" + part;
    }
    if (!key.empty()) return "[" + key + "]";
  }
  return "[" + std::to_string(index) + "]";
}

void flatten(const Json& v, const std::string& path, std::map<std::string, double>& out) {
  if (v.is_object()) {
    for (const auto& [k, child] : v.fields()) {
      // Run headers and embedded registry dumps are environment noise.
      if (path.empty() && (k == "meta" || k == "metrics")) continue;
      flatten(child, path.empty() ? k : path + "." + k, out);
    }
  } else if (v.is_array()) {
    for (size_t i = 0; i < v.size(); ++i) {
      flatten(v.at(i), path + element_key(v.at(i), i), out);
    }
  } else if (v.is_number()) {
    out[path] = v.as_number();
  }
}

struct Delta {
  std::string path;
  double baseline = 0.0;
  double candidate = 0.0;
  double change = 0.0;  // signed relative change, + = candidate larger
  Direction direction = Direction::kInfo;
  bool regression = false;
};

std::string direction_name(Direction d) {
  switch (d) {
    case Direction::kRatio: return "ratio";
    case Direction::kTime: return "time";
    case Direction::kInfo: return "info";
  }
  return "info";
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare <baseline.json> <candidate.json>\n"
               "                     [--tolerance <frac>] [--time-tolerance <frac>]\n"
               "                     [--out <verdict.json>]\n"
               "  --tolerance       max relative drop for ratio metrics (default 0.15)\n"
               "  --time-tolerance  gate time metrics too (default: informational)\n");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream buf;
  buf << f.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, candidate_path, out_path;
  double tolerance = 0.15;
  double time_tolerance = -1.0;  // < 0 = time metrics informational

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tolerance" && has_value) {
      tolerance = std::atof(argv[++i]);
    } else if (arg == "--time-tolerance" && has_value) {
      time_tolerance = std::atof(argv[++i]);
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg[0] == '-') {
      return usage();
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (candidate_path.empty()) {
      candidate_path = arg;
    } else {
      return usage();
    }
  }
  if (baseline_path.empty() || candidate_path.empty() || tolerance <= 0.0) return usage();

  std::string baseline_text, candidate_text;
  if (!read_file(baseline_path, baseline_text)) {
    std::fprintf(stderr, "error: cannot read %s\n", baseline_path.c_str());
    return 2;
  }
  if (!read_file(candidate_path, candidate_text)) {
    std::fprintf(stderr, "error: cannot read %s\n", candidate_path.c_str());
    return 2;
  }
  const Expected<Json> baseline = serve::parse_json(baseline_text);
  const Expected<Json> candidate = serve::parse_json(candidate_text);
  if (!baseline || !candidate) {
    std::fprintf(stderr, "error: %s\n",
                 (!baseline ? baseline : candidate).error().to_string().c_str());
    return 2;
  }

  std::map<std::string, double> base, cand;
  flatten(*baseline, "", base);
  flatten(*candidate, "", cand);

  std::vector<Delta> deltas;
  std::vector<std::string> missing_gated, missing_info, added;
  for (const auto& [path, bv] : base) {
    const auto it = cand.find(path);
    if (it == cand.end()) {
      (classify(path) == Direction::kRatio ? missing_gated : missing_info).push_back(path);
      continue;
    }
    Delta d;
    d.path = path;
    d.baseline = bv;
    d.candidate = it->second;
    d.direction = classify(path);
    d.change = bv != 0.0 ? (d.candidate - d.baseline) / std::fabs(d.baseline)
                         : (d.candidate == 0.0 ? 0.0 : INFINITY);
    if (d.direction == Direction::kRatio) {
      d.regression = d.change < -tolerance;
    } else if (d.direction == Direction::kTime && time_tolerance >= 0.0) {
      d.regression = d.change > time_tolerance;
    }
    deltas.push_back(d);
  }
  for (const auto& [path, v] : cand) {
    if (base.find(path) == base.end()) added.push_back(path);
  }

  // Report: regressions first, then the largest movers.
  std::stable_sort(deltas.begin(), deltas.end(), [](const Delta& a, const Delta& b) {
    if (a.regression != b.regression) return a.regression;
    return std::fabs(a.change) > std::fabs(b.change);
  });
  long regressions = static_cast<long>(missing_gated.size());
  for (const Delta& d : deltas) {
    if (d.regression) ++regressions;
  }

  std::printf("bench_compare: %s -> %s (%zu comparable metrics, tolerance %.0f%%%s)\n",
              baseline_path.c_str(), candidate_path.c_str(), deltas.size(),
              100.0 * tolerance,
              time_tolerance >= 0.0 ? ", time metrics gated" : ", time metrics informational");
  size_t shown = 0;
  for (const Delta& d : deltas) {
    if (!d.regression && shown >= 20 && std::fabs(d.change) < 0.05) break;
    std::printf("  %-9s %s %-58s %12.4g -> %-12.4g %+7.1f%%\n",
                d.regression ? "REGRESSED" : "ok", direction_name(d.direction).c_str(),
                d.path.c_str(), d.baseline, d.candidate, 100.0 * d.change);
    ++shown;
  }
  for (const std::string& path : missing_gated) {
    std::printf("  MISSING   ratio %s (present in baseline, gone from candidate)\n",
                path.c_str());
  }
  if (!added.empty()) {
    std::printf("  %zu new metric%s in candidate (not gated)\n", added.size(),
                added.size() == 1 ? "" : "s");
  }
  std::printf("verdict: %s (%ld regression%s)\n", regressions == 0 ? "PASS" : "FAIL",
              regressions, regressions == 1 ? "" : "s");

  if (!out_path.empty()) {
    Json verdict = Json::object();
    verdict.set("baseline", Json(baseline_path));
    verdict.set("candidate", Json(candidate_path));
    verdict.set("tolerance", Json(tolerance));
    verdict.set("time_gated", Json(time_tolerance >= 0.0));
    if (time_tolerance >= 0.0) verdict.set("time_tolerance", Json(time_tolerance));
    verdict.set("status", Json(regressions == 0 ? std::string("pass") : std::string("fail")));
    verdict.set("regressions", Json(regressions));
    Json rows = Json::array();
    for (const Delta& d : deltas) {
      Json row = Json::object();
      row.set("path", Json(d.path));
      row.set("class", Json(direction_name(d.direction)));
      row.set("baseline", Json(d.baseline));
      row.set("candidate", Json(d.candidate));
      row.set("change", Json(std::isfinite(d.change) ? d.change : 1e308));
      row.set("regression", Json(d.regression));
      rows.push(std::move(row));
    }
    verdict.set("metrics", std::move(rows));
    Json missing = Json::array();
    for (const std::string& path : missing_gated) missing.push(Json(path));
    verdict.set("missing_gated", std::move(missing));
    Json extra = Json::array();
    for (const std::string& path : added) extra.push(Json(path));
    verdict.set("added", std::move(extra));
    std::ofstream f(out_path);
    if (f) {
      f << verdict.dump() << "\n";
      std::printf("wrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 2;
    }
  }
  return regressions == 0 ? 0 : 1;
}
