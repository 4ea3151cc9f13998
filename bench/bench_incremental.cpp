// Cold vs warm re-analysis benchmark for the incremental AnalysisSession.
//
// Scenario: a designer (or the shrinker, or a sensitivity sweep) repeatedly
// nudges one combinational delay and re-checks the schedule. The cold
// engine rebuilds the TimingView and iterates eq. (17) from zero per edit;
// the session patches the view in place and warm-starts the fixpoint from
// the previous departures, seeded with just the dirty edge. Both sides run
// the identical monotone delay ramp (each edit increases the delay, so
// every warm analysis is eligible) and the reports are compared bit-for-bit
// along the way — the speedup only counts if the answers are IDENTICAL.
//
// The eco case is svcbench eco_loop's 6000-latch design: there a warm
// analyze costs the edit's cone, a cold one the whole circuit, so its
// speedup is what a cone-sized refresh buys at the size that matters.
//
// Writes BENCH_incremental.json (override with --out <path>). --small
// shrinks the edit counts for CI smoke runs; --check additionally gates the
// acceptance criterion (warm >= 5x cold on the GaAs-sized case, all cases
// bit-identical) with a nonzero exit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/table.h"
#include "baselines/binary_search.h"
#include "baselines/edge_triggered.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "netlist/extract.h"
#include "netlist/generators.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "opt/graph_solver.h"
#include "opt/mlp.h"
#include "sta/analysis.h"
#include "sta/session.h"

using namespace mintc;

namespace {

bool reports_identical(const sta::TimingReport& a, const sta::TimingReport& b) {
  if (a.feasible != b.feasible || a.schedule_ok != b.schedule_ok ||
      a.converged != b.converged || a.setup_ok != b.setup_ok || a.hold_ok != b.hold_ok) {
    return false;
  }
  if (a.elements.size() != b.elements.size()) return false;
  for (size_t i = 0; i < a.elements.size(); ++i) {
    if (a.elements[i].departure != b.elements[i].departure) return false;
    if (a.elements[i].arrival != b.elements[i].arrival) return false;
    if (a.elements[i].setup_slack != b.elements[i].setup_slack) return false;
    if (a.elements[i].hold_slack != b.elements[i].hold_slack) return false;
  }
  return a.worst_setup_slack == b.worst_setup_slack &&
         a.worst_setup_element == b.worst_setup_element &&
         a.worst_hold_slack == b.worst_hold_slack &&
         a.worst_hold_element == b.worst_hold_element;
}

struct CaseResult {
  std::string name;
  int elements = 0;
  int edges = 0;
  int edits = 0;
  double cold_seconds = 0.0;  // per-edit, min over reps
  double warm_seconds = 0.0;
  double speedup = 0.0;
  bool bit_identical = true;
  long warm_hits = 0;
  long cold_fallbacks = 0;
};

Circuit make_datapath(int bits, int stages) {
  netlist::DatapathConfig cfg;
  cfg.bits = bits;
  cfg.stages = stages;
  cfg.num_phases = 2;
  const auto circuit = netlist::extract_timing_model(netlist::make_pipelined_datapath(cfg));
  if (!circuit) {
    std::fprintf(stderr, "extraction failed: %s\n", circuit.error().to_string().c_str());
    std::exit(1);
  }
  return *circuit;
}

// The edit ramp: path `p` takes delay d0 + k*step for a global, ever-
// increasing k, so repeated timing reps stay monotone (warm-eligible) and
// never revisit a value. The total excursion stays well inside the
// schedule's 25% slack.
struct Ramp {
  int path = 0;
  double d0 = 0.0;
  double step = 0.0;
  long k = 0;

  double next() { return d0 + step * static_cast<double>(++k); }
};

// Each timing rep runs a warm window of `edits` edits; every `cold_every`th
// rep also runs a cold one, so a case whose cold analysis is thousands of
// times dearer can still take its warm minimum over many windows.
CaseResult run_case(const std::string& name, const Circuit& circuit,
                    const ClockSchedule& schedule, int edits, int reps, int check_every,
                    int cold_every = 1) {
  sta::AnalysisOptions options;
  options.check_hold = true;

  CaseResult res;
  res.name = name;
  res.elements = circuit.num_elements();
  res.edges = circuit.num_paths();
  res.edits = edits;

  Ramp ramp;
  ramp.d0 = circuit.path(ramp.path).delay;
  // Keep the whole ramp (verification + all timing reps) under ~2% growth.
  const long total_edits = static_cast<long>(edits) * (reps + 1) * 2 + edits;
  ramp.step = std::max(ramp.d0, 1.0) * 0.02 / static_cast<double>(total_edits);

  // -- Correctness pass (untimed): every `check_every`th edit, compare the
  //    session's warm report against a from-scratch check_schedule.
  sta::AnalysisSession session(circuit, schedule, options);
  session.analyze();
  Circuit scratch = circuit;
  for (int e = 0; e < edits; ++e) {
    const double d = ramp.next();
    session.set_path_delay(ramp.path, d);
    const sta::TimingReport& warm = session.analyze();
    if (e % check_every == 0) {
      scratch.set_path_delay(ramp.path, d);
      if (!reports_identical(warm, sta::check_schedule(scratch, schedule, options))) {
        res.bit_identical = false;
      }
    }
  }

  // -- Timing: identical edit streams, cold vs warm, min-of-reps.
  for (int r = 0; r < reps; ++r) {
    if (r % cold_every == 0) {
      scratch = circuit;
      const StageTimer cold_timer;
      for (int e = 0; e < edits; ++e) {
        scratch.set_path_delay(ramp.path, ramp.next());
        const sta::TimingReport rep = sta::check_schedule(scratch, schedule, options);
        if (!rep.converged) res.bit_identical = false;  // ramp escaped the slack
      }
      const double cold = cold_timer.seconds() / edits;
      if (r == 0 || cold < res.cold_seconds) res.cold_seconds = cold;
    }

    const StageTimer warm_timer;
    for (int e = 0; e < edits; ++e) {
      session.set_path_delay(ramp.path, ramp.next());
      session.analyze();
    }
    const double warm = warm_timer.seconds() / edits;
    if (r == 0 || warm < res.warm_seconds) res.warm_seconds = warm;
  }
  res.speedup = res.cold_seconds / res.warm_seconds;
  res.warm_hits = session.counters().warm_hits;
  res.cold_fallbacks = session.counters().cold_fallbacks;
  return res;
}

void write_json(const std::vector<CaseResult>& cases, const std::string& path, bool small) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"incremental\",\n  \"mode\": \"%s\",\n  \"cases\": [\n",
               small ? "small" : "full");
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"elements\": %d, \"edges\": %d, \"edits\": %d,\n"
                 "     \"cold_seconds_per_edit\": %.6e, \"warm_seconds_per_edit\": %.6e,\n"
                 "     \"speedup\": %.3f, \"bit_identical\": %s,\n"
                 "     \"warm_hits\": %ld, \"cold_fallbacks\": %ld}%s\n",
                 c.name.c_str(), c.elements, c.edges, c.edits, c.cold_seconds,
                 c.warm_seconds, c.speedup, c.bit_identical ? "true" : "false", c.warm_hits,
                 c.cold_fallbacks, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Embed the process metrics so the artifact carries the session counters
  // (session.warm_hits / invalidations / cold_fallbacks) and fixpoint
  // accounting alongside the timings.
  const std::string metrics = obs::metrics_json(obs::MetricsRegistry::instance().snapshot());
  std::fprintf(f, "  \"metrics\": %s\n}\n", metrics.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  bool check = false;
  std::string out = "BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--small] [--check] [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  std::vector<CaseResult> results;

  // Small mode's warm windows last a few hundred microseconds, so one of
  // them is easily hit by a busy host. The speedup is taken from the
  // minimum over a few hundred windows per side (about a second per run),
  // which keeps the gated cold/warm ratio steady from run to run.

  // The paper's GaAs datapath at a schedule with 25% slack over Tc*.
  {
    const Circuit gaas = circuits::gaas_datapath();
    const auto mlp = opt::minimize_cycle_time(gaas);
    if (!mlp) {
      std::fprintf(stderr, "GaAs MLP failed: %s\n", mlp.error().to_string().c_str());
      return 1;
    }
    results.push_back(run_case("gaas", gaas, mlp->schedule.scaled(1.25), small ? 400 : 2000,
                               small ? 200 : 5, 10));
  }

  // Synthetic pipelined datapaths (netlist-extracted), CPM-slack schedule.
  struct Spec {
    const char* name;
    int bits, stages, edits, reps;
  };
  std::vector<Spec> specs;
  if (small) {
    specs = {{"datapath-8x32", 8, 32, 60, 300}};
  } else {
    specs = {{"datapath-8x32", 8, 32, 200, 3}, {"datapath-16x64", 16, 64, 100, 3}};
  }
  for (const Spec& s : specs) {
    const Circuit circuit = make_datapath(s.bits, s.stages);
    const double tc = 1.2 * std::max(1.0, baselines::edge_triggered_cpm(circuit).cycle);
    const ClockSchedule schedule =
        baselines::ClockShape::symmetric(circuit.num_phases()).at_cycle(tc);
    results.push_back(run_case(s.name, circuit, schedule, s.edits, s.reps, 10));
  }

  // eco_loop's design (svcbench): 6000 latches on 3 phases, at a schedule
  // with 25% slack over Tc*.
  {
    circuits::SyntheticParams p;
    p.num_phases = 3;
    p.num_stages = 240;
    p.latches_per_stage = 25;
    p.extra_long_edges = 240;
    const Circuit eco = circuits::synthetic_circuit(p, 1101);
    const auto exact = opt::minimize_cycle_time_exact(eco);
    if (!exact) {
      std::fprintf(stderr, "eco solve failed: %s\n", exact.error().to_string().c_str());
      return 1;
    }
    results.push_back(run_case("eco-6000", eco, exact->schedule.scaled(1.25), small ? 20 : 100,
                               small ? 300 : 20, 5, small ? 60 : 4));
  }

  std::printf("== incremental re-analysis: cold check_schedule vs warm AnalysisSession ==\n");
  TextTable table(
      {"circuit", "elements", "edges", "cold us/edit", "warm us/edit", "speedup", "identical"});
  for (const CaseResult& r : results) {
    char cbuf[32], wbuf[32], sbuf[32];
    std::snprintf(cbuf, sizeof cbuf, "%.2f", r.cold_seconds * 1e6);
    std::snprintf(wbuf, sizeof wbuf, "%.2f", r.warm_seconds * 1e6);
    std::snprintf(sbuf, sizeof sbuf, "%.2fx", r.speedup);
    table.add_row({r.name, std::to_string(r.elements), std::to_string(r.edges), cbuf, wbuf,
                   sbuf, r.bit_identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.to_string().c_str());

  write_json(results, out, small);

  int rc = 0;
  for (const CaseResult& r : results) {
    if (!r.bit_identical) {
      std::fprintf(stderr, "FAIL: %s warm reports differ from cold ones\n", r.name.c_str());
      rc = 1;
    }
  }
  if (check) {
    // Acceptance gate: warm re-analysis after a single delay edit on the
    // GaAs circuit must be at least 5x faster than a cold one.
    if (results[0].speedup < 5.0) {
      std::fprintf(stderr, "FAIL: gaas warm speedup %.2fx below the 5x acceptance gate\n",
                   results[0].speedup);
      rc = 1;
    }
  }
  return rc;
}
