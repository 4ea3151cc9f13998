// Ablation: simplex LP vs the Bellman-Ford/binary-search optimizer — the
// "more efficient than the simplex algorithm" direction of Section VI,
// exploiting the purely topological (0, ±1) constraint matrix. Both are
// exact; the table verifies agreement and the benchmarks compare costs as
// the circuit grows. A second table splits the exact solver (the service's
// `min`) into its disjoint stages on svcbench schedule_design's six designs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "base/table.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "opt/graph_solver.h"
#include "opt/mlp.h"

using namespace mintc;

namespace {

Circuit synthetic_sized(int stages) {
  circuits::SyntheticParams p;
  p.num_phases = 2;
  p.num_stages = stages;
  p.latches_per_stage = 4;
  p.fanin = 3;
  return circuits::synthetic_circuit(p, 2718);
}

void print_agreement_table() {
  std::printf("== exact optimizers: simplex vs Bellman-Ford binary search ==\n");
  TextTable table({"circuit", "Tc* simplex", "Tc* graph", "pivots", "BF relaxations",
                   "search steps"});
  struct Named {
    const char* name;
    Circuit circuit;
  };
  const Named list[] = {{"example1(d41=80)", circuits::example1(80.0)},
                        {"example2", circuits::example2()},
                        {"gaas", circuits::gaas_datapath()},
                        {"synthetic(l=64)", synthetic_sized(16)},
                        {"synthetic(l=256)", synthetic_sized(64)}};
  for (const auto& [name, circuit] : list) {
    const auto lp = opt::minimize_cycle_time(circuit);
    const auto bf = opt::minimize_cycle_time_graph(circuit);
    if (!lp || !bf) continue;
    char a[32], b[32];
    std::snprintf(a, sizeof a, "%.6g", lp->min_cycle);
    std::snprintf(b, sizeof b, "%.6g", bf->min_cycle);
    table.add_row({name, a, b,
                   std::to_string(lp->lp_stats.phase1_pivots + lp->lp_stats.phase2_pivots),
                   std::to_string(bf->relaxations), std::to_string(bf->search_steps)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("the graph method never builds a tableau: its work is edges x passes x\n"
              "binary-search steps, all on the topological +-1 structure.\n\n");
}

double stage_of(const EngineStats& stats, const std::string& name) {
  for (const auto& [stage, seconds] : stats.stages) {
    if (stage == name) return seconds;
  }
  return 0.0;
}

void print_exact_stage_split() {
  constexpr int kSolves = 201;
  std::printf("== exact solver stages on schedule_design's designs (us, median of %d solves) ==\n",
              kSolves);
  const char* const kStages[] = {"system", "zero-transit", "cycle-ratio", "certify"};
  TextTable table({"design", "latches", "view", "system", "zero-transit", "cycle-ratio",
                   "certify", "departures", "wall", "rest"});
  struct Shape {
    int phases, stages;
  };
  const Shape shapes[] = {{2, 8}, {3, 12}, {2, 14}, {3, 18}, {2, 20}, {3, 24}};
  for (int d = 0; d < 6; ++d) {
    circuits::SyntheticParams p;
    p.num_phases = shapes[d].phases;
    p.num_stages = shapes[d].stages;
    p.latches_per_stage = 4;
    p.extra_long_edges = 4;
    const Circuit c = circuits::synthetic_circuit(p, 3101 + static_cast<std::uint64_t>(d));
    // Per column: view, the four stages, departures (shift + solve), wall,
    // and what no stage holds.
    std::vector<std::vector<double>> us(8);
    for (int run = 0; run < kSolves; ++run) {
      const auto r = opt::minimize_cycle_time_exact(c);
      if (!r) return;
      const EngineStats& s = r->stats;
      us[0].push_back(s.view_build_seconds * 1e6);
      for (int k = 0; k < 4; ++k) {
        us[static_cast<size_t>(1 + k)].push_back(stage_of(s, kStages[k]) * 1e6);
      }
      us[5].push_back((s.shift_build_seconds + s.solve_seconds) * 1e6);
      us[6].push_back(s.wall_seconds * 1e6);
      us[7].push_back((s.wall_seconds - s.accounted_seconds()) * 1e6);
    }
    std::vector<std::string> row = {"sd" + std::to_string(d), std::to_string(c.num_elements())};
    for (std::vector<double>& column : us) {
      std::nth_element(column.begin(), column.begin() + kSolves / 2, column.end());
      char cell[32];
      std::snprintf(cell, sizeof cell, "%.1f", column[kSolves / 2]);
      row.push_back(cell);
    }
    table.add_row(row);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("the stages are disjoint: view + system + zero-transit + cycle-ratio +\n"
              "certify + departures + rest = wall, per solve (each column is its own median).\n\n");
}

void BM_Simplex(benchmark::State& state) {
  const Circuit c = synthetic_sized(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = opt::minimize_cycle_time(c);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("l=" + std::to_string(c.num_elements()));
}
BENCHMARK(BM_Simplex)->Arg(8)->Arg(16)->Arg(32);

void BM_GraphSolver(benchmark::State& state) {
  const Circuit c = synthetic_sized(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = opt::minimize_cycle_time_graph(c);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("l=" + std::to_string(c.num_elements()));
}
BENCHMARK(BM_GraphSolver)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  print_agreement_table();
  print_exact_stage_split();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
