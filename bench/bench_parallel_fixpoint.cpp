// Thread-scaling benchmark of the eq. (17) engine (sta::ParallelFixpoint)
// on generated circuits from 10^5 up to 10^6 latches (deep pipelines, 2-D
// meshes, SCC soups).
//
// The scalar reference is the engine at one thread, one-shot: a
// compute_departures call, which builds the SCC plan and runs every
// component inline on the calling thread, as check_schedule does. Against
// it the bench runs prebuilt engines at 1/2/4/8 threads (plan amortized)
// and reports the scaling curve. The BIT-IDENTITY GATE is always on: any
// solve whose departure vector is not exactly (operator==) the reference's
// fails the run. The SPEEDUP GATE is opt-in (--min-speedup <x>, e.g. 3.0 at
// 8 threads per the acceptance bar) because CI smoke machines may expose a
// single core, where no wall-clock scaling is physically possible.
//
// Writes BENCH_parallel.json (override with --out <path>); --small shrinks
// the circuit set for CI smoke runs; --huge adds the 10^6-latch pipeline.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/table.h"
#include "model/timing_view.h"
#include "netlist/generators.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "sta/fixpoint.h"
#include "sta/parallel_fixpoint.h"
#include "sta/relax_kernel.h"

using namespace mintc;

namespace {

constexpr int kThreads[] = {1, 2, 4, 8};

struct ThreadPoint {
  int threads = 0;
  double seconds = 0.0;   // min over reps
  double speedup = 0.0;   // scalar_seconds / seconds
  long tasks = 0;
  long steals = 0;
  int max_shard_sweeps = 0;
};

struct CaseResult {
  std::string name;
  std::string kernel;     // resolved kernel of the parallel engine
  int latches = 0;
  long edges = 0;
  int sccs = 0;
  int nontrivial_sccs = 0;
  double scalar_seconds = 0.0;
  double partition_seconds = 0.0;  // one-time SCC/condensation build
  std::vector<ThreadPoint> points;
  bool identical = true;  // bitwise equality vs the reference, all thread counts
};

std::vector<double> zeros(const Circuit& c) {
  return std::vector<double>(static_cast<size_t>(c.num_elements()), 0.0);
}

CaseResult run_case(const std::string& name, const Circuit& circuit,
                    const ClockSchedule& schedule, int reps) {
  CaseResult res;
  res.name = name;
  res.latches = circuit.num_elements();
  res.edges = circuit.num_paths();

  const TimingView view(circuit);
  const ShiftTable shifts(schedule);

  sta::FixpointResult scalar_ref;
  for (int r = 0; r < reps; ++r) {
    const StageTimer timer;
    scalar_ref = sta::compute_departures(view, shifts, zeros(circuit));
    const double t = timer.seconds();
    if (r == 0 || t < res.scalar_seconds) res.scalar_seconds = t;
  }
  if (!scalar_ref.converged) {
    std::fprintf(stderr, "%s: one-thread reference did not converge (%s)\n", name.c_str(),
                 to_string(scalar_ref.status));
    std::exit(1);
  }

  for (const int threads : kThreads) {
    sta::ParallelFixpointOptions popt;
    popt.num_threads = threads;
    const StageTimer build_timer;
    sta::ParallelFixpoint engine(view, popt);
    if (threads == kThreads[0]) {
      res.partition_seconds = build_timer.seconds();
      res.kernel = to_string(engine.kernel());
      res.sccs = engine.num_components();
    }
    ThreadPoint pt;
    pt.threads = threads;
    sta::FixpointResult par;
    for (int r = 0; r < reps; ++r) {
      const StageTimer timer;
      par = engine.solve(shifts, zeros(circuit));
      const double t = timer.seconds();
      if (r == 0 || t < pt.seconds) pt.seconds = t;
    }
    const sta::ParallelSolveStats& st = engine.last_stats();
    pt.tasks = st.tasks;
    pt.steals = st.steals;
    pt.max_shard_sweeps = st.max_shard_sweeps;
    if (threads == kThreads[0]) res.nontrivial_sccs = st.nontrivial_sccs;
    pt.speedup = res.scalar_seconds / pt.seconds;
    // The gate that keeps the parallel engine honest: exact equality, not a
    // tolerance. A single reassociated add would show up here.
    if (!par.converged || par.departure != scalar_ref.departure) {
      res.identical = false;
      std::fprintf(stderr, "%s: BIT-IDENTITY VIOLATION at %d threads\n", name.c_str(),
                   threads);
    }
    res.points.push_back(pt);
  }
  return res;
}

void write_json(const std::vector<CaseResult>& cases, const std::string& path,
                const char* mode) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"parallel_fixpoint\",\n  \"mode\": \"%s\",\n  \"cases\": [\n",
               mode);
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"kernel\": \"%s\", \"latches\": %d, "
                 "\"edges\": %ld,\n"
                 "     \"sccs\": %d, \"nontrivial_sccs\": %d,\n"
                 "     \"scalar_seconds\": %.6e, \"partition_seconds\": %.6e,\n"
                 "     \"identical\": %s, \"points\": [\n",
                 c.name.c_str(), c.kernel.c_str(), c.latches, c.edges, c.sccs,
                 c.nontrivial_sccs, c.scalar_seconds, c.partition_seconds,
                 c.identical ? "true" : "false");
    for (size_t p = 0; p < c.points.size(); ++p) {
      const ThreadPoint& t = c.points[p];
      std::fprintf(f,
                   "      {\"threads\": %d, \"seconds\": %.6e, \"speedup\": %.3f, "
                   "\"tasks\": %ld, \"steals\": %ld, \"max_shard_sweeps\": %d}%s\n",
                   t.threads, t.seconds, t.speedup, t.tasks, t.steals, t.max_shard_sweeps,
                   p + 1 < c.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  const std::string metrics = obs::metrics_json(obs::MetricsRegistry::instance().snapshot());
  std::fprintf(f, "  \"metrics\": %s\n}\n", metrics.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  bool huge = false;
  double min_speedup = 0.0;  // 0 = gate off (single-core CI machines)
  std::string out = "BENCH_parallel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--huge") == 0) {
      huge = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--small] [--huge] [--out <path>] [--min-speedup <x>]\n",
                   argv[0]);
      return 2;
    }
  }

  struct Spec {
    std::string name;
    Circuit circuit;
    ClockSchedule schedule;
    int reps;
  };
  std::vector<Spec> specs;
  const auto add = [&](std::string name, Circuit c, int k, double dq, double delay,
                       int reps) {
    const ClockSchedule sch = netlist::generator_schedule(k, dq, delay);
    specs.push_back({std::move(name), std::move(c), sch, reps});
  };

  if (small) {
    netlist::DeepPipelineConfig pipe;
    pipe.depth = 200;
    pipe.width = 25;  // 5k latches
    add("pipeline-5k", netlist::make_deep_pipeline(pipe), pipe.num_phases, pipe.dq,
        pipe.delay, 3);
    netlist::SccSoupConfig soup;
    soup.num_sccs = 500;
    soup.scc_size = 10;
    soup.cross_edges = 1000;
    add("soup-5k", netlist::make_scc_soup(soup), soup.num_phases, soup.dq, soup.delay, 3);
  } else {
    netlist::DeepPipelineConfig pipe;
    pipe.depth = 2500;
    pipe.width = 40;  // 10^5 latches
    add("pipeline-100k", netlist::make_deep_pipeline(pipe), pipe.num_phases, pipe.dq,
        pipe.delay, 3);
    netlist::MeshConfig mesh;  // 316 x 316 ~= 10^5 latches
    add("mesh-100k", netlist::make_mesh(mesh), mesh.num_phases, mesh.dq, mesh.delay, 3);
    netlist::SccSoupConfig soup;  // 1000 rings x 100 latches
    add("soup-100k", netlist::make_scc_soup(soup), soup.num_phases, soup.dq, soup.delay, 3);
    if (huge) {
      netlist::DeepPipelineConfig big;
      big.depth = 10000;
      big.width = 100;  // 10^6 latches
      add("pipeline-1M", netlist::make_deep_pipeline(big), big.num_phases, big.dq,
          big.delay, 2);
    }
  }

  std::printf("== eq. (17) fixpoint: one-shot engine at one thread vs ParallelFixpoint ==\n");
  TextTable table({"circuit", "latches", "sccs", "kernel", "scalar s", "t=1", "t=2", "t=4",
                   "t=8", "best x", "identical"});
  std::vector<CaseResult> results;
  bool all_identical = true;
  double best_overall = 0.0;
  for (const Spec& s : specs) {
    CaseResult r = run_case(s.name, s.circuit, s.schedule, s.reps);
    all_identical = all_identical && r.identical;
    std::vector<std::string> row = {r.name, std::to_string(r.latches),
                                    std::to_string(r.sccs), r.kernel};
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", r.scalar_seconds);
    row.push_back(buf);
    double best = 0.0;
    for (const ThreadPoint& p : r.points) {
      std::snprintf(buf, sizeof buf, "%.4f", p.seconds);
      row.push_back(buf);
      best = std::max(best, p.speedup);
    }
    best_overall = std::max(best_overall, best);
    std::snprintf(buf, sizeof buf, "%.2f", best);
    row.push_back(buf);
    row.push_back(r.identical ? "yes" : "NO");
    table.add_row(row);
    results.push_back(std::move(r));
  }
  std::printf("%s", table.to_string().c_str());

  write_json(results, out, small ? "small" : (huge ? "huge" : "full"));

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: engine results differ across thread counts\n");
    return 1;
  }
  if (min_speedup > 0.0 && best_overall < min_speedup) {
    std::fprintf(stderr, "FAIL: best speedup %.2fx < required %.2fx\n", best_overall,
                 min_speedup);
    return 1;
  }
  std::printf("bit-identity gate: PASS%s\n",
              min_speedup > 0.0 ? " / speedup gate: PASS" : "");
  return 0;
}
