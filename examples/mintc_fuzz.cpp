// mintc-fuzz — differential fuzzing front end for the three Tc engines.
//
//   mintc-fuzz --seeds 500                  cross-check 500 random circuits
//   mintc-fuzz --seeds 500 --out repros/    also write shrunk .lct repros
//   mintc-fuzz --inject                     demo: inject a delay mutation so
//                                           the engines disagree, then shrink
//                                           the failure to a minimal repro
//
// Exit status: 0 when every circuit passes the full agreement matrix
// (simplex vs graph solver vs fixpoint engine vs Jacobi oracle vs token
// sim, plus the .lct text round trip); 1 when any disagreement survives. In --inject mode the logic
// inverts: the injected fault MUST be detected and shrunk, so 0 means the
// harness caught it and 1 means it slipped through.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/strings.h"
#include "check/fuzzer.h"
#include "obs/export.h"
#include "obs/trace.h"

using namespace mintc;

namespace {

int usage() {
  std::printf(
      "usage: mintc-fuzz [--seeds N] [--base-seed S] [--out DIR]\n"
      "                  [--max-failures M] [--no-sim] [--no-shrink] [--inject]\n"
      "                  [--trace-out FILE] [--metrics-out FILE]\n");
  return 2;
}

void print_failure(const check::FuzzFailure& f) {
  std::printf("seed %llu: %zu disagreement%s\n", static_cast<unsigned long long>(f.seed),
              f.failures.size(), f.failures.size() == 1 ? "" : "s");
  for (const check::CheckFailure& cf : f.failures) {
    std::printf("  [%s] %s\n", check::to_string(cf.kind), cf.detail.c_str());
  }
  std::printf("  shrunk %d elements / %d paths -> %d / %d (%d candidate edits)\n",
              f.original_elements, f.original_paths, f.shrunk_elements, f.shrunk_paths,
              f.shrink_attempts);
  if (!f.repro_path.empty()) {
    std::printf("  repro written to %s\n", f.repro_path.c_str());
  }
  if (!f.trace_path.empty()) {
    std::printf("  trace written to %s (load in chrome://tracing)\n", f.trace_path.c_str());
  }
  if (!f.metrics_path.empty()) {
    std::printf("  metrics written to %s\n", f.metrics_path.c_str());
  }
  if (!f.report_path.empty()) {
    std::printf("  signoff report written to %s\n", f.report_path.c_str());
  }
  std::printf("  minimal repro:\n---\n%s---\n", f.repro_lct.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  check::FuzzOptions options;
  options.num_seeds = 100;
  bool inject = false;
  std::string trace_out, metrics_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--seeds") {
      const char* v = next();
      if (!v || !parse_int(v, options.num_seeds) || options.num_seeds < 1) return usage();
    } else if (arg == "--base-seed") {
      const char* v = next();
      int s = 0;
      if (!v || !parse_int(v, s) || s < 0) return usage();
      options.base_seed = static_cast<uint64_t>(s);
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage();
      options.repro_dir = v;
    } else if (arg == "--max-failures") {
      const char* v = next();
      if (!v || !parse_int(v, options.max_failures) || options.max_failures < 1) return usage();
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return usage();
      trace_out = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return usage();
      metrics_out = v;
    } else if (arg == "--no-sim") {
      options.diff.check_simulation = false;
    } else if (arg == "--no-shrink") {
      options.shrink_failures = false;
    } else if (arg == "--inject") {
      inject = true;
    } else {
      return usage();
    }
  }

  if (inject) {
    // Skew the graph solver's copy of every circuit by 10%: the engines now
    // legitimately disagree, which exercises detection + shrinking end to
    // end. A healthy harness must flag every feasible circuit.
    options.diff.inject_solver_skew = 0.10;
    if (options.num_seeds > 10) options.num_seeds = 10;  // each failure shrinks; keep it quick
  }

  // Whole-run tracing only when asked for: the fuzzer's throughput is the
  // point, and per-failure dumps are captured regardless (see fuzzer.cpp).
  if (!trace_out.empty()) obs::Tracer::instance().set_enabled(true);

  const check::FuzzResult res = check::run_fuzz(options);

  if (!trace_out.empty()) {
    obs::Tracer::instance().set_enabled(false);
    if (obs::write_chrome_trace(trace_out)) {
      std::printf("trace written to %s\n", trace_out.c_str());
    }
  }
  if (!metrics_out.empty() && obs::write_metrics_json(metrics_out)) {
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }

  std::printf("checked %d circuit%s (%d feasible), %zu failing seed%s\n", res.circuits_checked,
              res.circuits_checked == 1 ? "" : "s", res.feasible, res.failures.size(),
              res.failures.size() == 1 ? "" : "s");
  for (const check::FuzzFailure& f : res.failures) print_failure(f);

  if (inject) {
    // The fault must be caught on every feasible circuit, and shrinking
    // must produce a parseable repro strictly smaller than the original.
    if (res.failures.empty()) {
      std::printf("INJECTION MISSED: no engine disagreement detected\n");
      return 1;
    }
    for (const check::FuzzFailure& f : res.failures) {
      const bool reduced = f.shrunk_paths < f.original_paths ||
                           f.shrunk_elements < f.original_elements;
      if (f.repro_lct.empty() || (options.shrink_failures && !reduced)) {
        std::printf("INJECTION DETECTED but shrinking produced no reduced repro\n");
        return 1;
      }
    }
    std::printf("injected fault detected and shrunk OK\n");
    return 0;
  }
  return res.ok() ? 0 : 1;
}
