#include "check/fuzzer.h"

#include <random>
#include <utility>

#include "check/shrink.h"
#include "circuits/synthetic.h"
#include "netlist/extract.h"
#include "netlist/generators.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "opt/mlp.h"
#include "parser/lct.h"
#include "report/export.h"
#include "report/slackdb.h"

namespace mintc::check {

namespace {

constexpr uint64_t kSeedSalt = 0x9e3779b97f4a7c15ull;  // golden-ratio mix

}  // namespace

Circuit fuzz_circuit(uint64_t seed) {
  std::mt19937_64 rng(seed ^ kSeedSalt);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  Circuit c = [&]() -> Circuit {
    if (unit(rng) < 0.2) {
      // Gate-level route: a random datapath netlist, extracted into the
      // timing model. Generator netlists are feedback-free between latch
      // banks by construction, so extraction succeeds; fall through to the
      // synthetic generator defensively anyway.
      netlist::DatapathConfig cfg;
      cfg.bits = 2 + static_cast<int>(rng() % 5);
      cfg.stages = 2 + static_cast<int>(rng() % 4);
      cfg.num_phases = 2 + static_cast<int>(rng() % 2);
      auto extracted = netlist::extract_timing_model(netlist::make_pipelined_datapath(cfg));
      if (extracted) return std::move(extracted.value());
    }
    circuits::SyntheticParams p;
    p.num_phases = 1 + static_cast<int>(rng() % 3);
    p.num_stages = std::max(p.num_phases + 1, 3 + static_cast<int>(rng() % 5));
    p.latches_per_stage = 1 + static_cast<int>(rng() % 3);
    p.fanin = 1 + static_cast<int>(rng() % 3);
    p.extra_long_edges = static_cast<int>(rng() % 5);
    p.min_delay = 1.0 + 9.0 * unit(rng);
    p.max_delay = p.min_delay + 5.0 + 35.0 * unit(rng);
    p.setup = 0.5 + 2.5 * unit(rng);
    p.dq = 0.5 + 3.5 * unit(rng);
    return circuits::synthetic_circuit(p, rng());
  }();

  // Occasionally convert a few latches into flip-flops: pinned departures
  // exercise the engines' flip-flop rows, and a same-phase feed into a
  // flip-flop gives consistent-infeasibility coverage (both engines must
  // report kInfeasible).
  if (unit(rng) < 0.25 && c.num_elements() > 2) {
    const int conversions = 1 + static_cast<int>(rng() % 2);
    for (int i = 0; i < conversions; ++i) {
      const int victim = static_cast<int>(rng() % static_cast<uint64_t>(c.num_elements()));
      c.element(victim).kind = ElementKind::kFlipFlop;
    }
  }
  return c;
}

FuzzResult run_fuzz(const FuzzOptions& options) {
  FuzzResult res;
  for (int i = 0; i < options.num_seeds; ++i) {
    const uint64_t seed = options.base_seed + static_cast<uint64_t>(i);
    const Circuit c = fuzz_circuit(seed);
    const uint64_t perturb_seed = seed * kSeedSalt + 1;
    const DifferentialReport rep = check_circuit(c, perturb_seed, options.diff);
    ++res.circuits_checked;
    if (rep.feasible) ++res.feasible;
    if (rep.ok()) continue;

    FuzzFailure ff;
    ff.seed = seed;
    ff.failures = rep.failures;
    ff.original_elements = c.num_elements();
    ff.original_paths = c.num_paths();

    Circuit minimal = c;
    if (options.shrink_failures) {
      // Preserve the *first* failure kind through shrinking: requiring the
      // same kind keeps the minimizer from wandering onto a different bug.
      const CheckKind kind = rep.failures.front().kind;
      const auto still_fails = [&](const Circuit& cand) {
        return check_circuit(cand, perturb_seed, options.diff).has(kind);
      };
      ShrinkResult sr = shrink_circuit(c, still_fails);
      minimal = std::move(sr.circuit);
      ff.shrink_attempts = sr.attempts;
    }
    ff.shrunk_elements = minimal.num_elements();
    ff.shrunk_paths = minimal.num_paths();
    ff.repro_lct = parser::write_circuit(minimal);
    if (!options.repro_dir.empty()) {
      const std::string base = options.repro_dir + "/repro_seed" + std::to_string(seed);
      ff.repro_path = base + ".lct";
      if (!parser::save_circuit(minimal, ff.repro_path)) ff.repro_path.clear();
      // Replay the failing check on the minimal circuit with tracing forced
      // on, and dump exactly that slice of the trace (plus the metrics
      // state) next to the repro — the diagnosis starts from those files.
      obs::Tracer& tracer = obs::Tracer::instance();
      const bool was_enabled = tracer.enabled();
      const size_t mark = tracer.num_events();
      tracer.set_enabled(true);
      (void)check_circuit(minimal, perturb_seed, options.diff);
      tracer.set_enabled(was_enabled);
      ff.trace_path = base + ".trace.json";
      if (!obs::write_chrome_trace(ff.trace_path, tracer.snapshot(mark))) {
        ff.trace_path.clear();
      }
      ff.metrics_path = base + ".metrics.json";
      if (!obs::write_metrics_json(ff.metrics_path)) ff.metrics_path.clear();
      // A full slack/borrow report of the minimal circuit at its own
      // optimum: which endpoint is tight and who borrows is usually the
      // fastest route to the diverging engine.
      if (const auto mlp = opt::minimize_cycle_time(minimal)) {
        const report::SlackDB db = report::build_slackdb(minimal, mlp->schedule);
        ff.report_path = base + ".report.json";
        if (!report::write_report_file(ff.report_path, report::report_json(db))) {
          ff.report_path.clear();
        }
      }
    }
    res.failures.push_back(std::move(ff));
    if (static_cast<int>(res.failures.size()) >= options.max_failures) break;
  }
  return res;
}

}  // namespace mintc::check
