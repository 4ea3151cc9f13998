// Ablation: the LP solver against the maximum-cycle-ratio bound.
//
// Section VI notes the constraint matrix is purely topological and hints at
// algorithms "potentially more efficient than the simplex algorithm"; the
// max cycle ratio of the latch graph is exactly such a combinatorial
// object: it lower-bounds Tc* and equals it whenever no setup constraint
// binds. This bench compares values and costs of simplex vs Howard-style
// policy iteration.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "base/table.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "graph/cycle_ratio.h"
#include "opt/mlp.h"

using namespace mintc;

namespace {

Circuit synthetic_mid() {
  circuits::SyntheticParams p;
  p.num_phases = 3;
  p.num_stages = 12;
  p.latches_per_stage = 3;
  return circuits::synthetic_circuit(p, 31337);
}

void print_value_table() {
  std::printf("== LP optimum vs max cycle ratio ==\n");
  TextTable table({"circuit", "Tc* (LP)", "cycle ratio (Howard)", "setup binds?"});
  struct Named {
    const char* name;
    Circuit circuit;
  };
  const Named list[] = {{"example1(d41=80)", circuits::example1(80.0)},
                        {"example1(d41=0)", circuits::example1(0.0)},
                        {"example2", circuits::example2()},
                        {"gaas", circuits::gaas_datapath()},
                        {"synthetic(l=36)", synthetic_mid()}};
  for (const auto& [name, circuit] : list) {
    const auto r = opt::minimize_cycle_time(circuit);
    const auto howard = graph::max_cycle_ratio_howard(circuit.latch_graph());
    if (!r) continue;
    char tc[32], ho[32];
    std::snprintf(tc, sizeof tc, "%.4f", r->min_cycle);
    std::snprintf(ho, sizeof ho, "%.4f", howard ? howard->ratio : 0.0);
    bool setup_binds = false;
    for (const auto& t : r->critical) {
      setup_binds |= t.name.rfind("L1:", 0) == 0 || t.name.rfind("FF:", 0) == 0;
    }
    table.add_row({name, tc, ho, setup_binds ? "yes" : "no"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\ninvariant: Tc* >= ratio always; equality when no setup row binds.\n\n");
}

void BM_SimplexOptimum(benchmark::State& state) {
  const Circuit c = synthetic_mid();
  for (auto _ : state) {
    auto r = opt::minimize_cycle_time(c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SimplexOptimum);

void BM_CycleRatioHoward(benchmark::State& state) {
  const Circuit c = synthetic_mid();
  const auto g = c.latch_graph();
  for (auto _ : state) {
    auto r = graph::max_cycle_ratio_howard(g);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CycleRatioHoward);

}  // namespace

int main(int argc, char** argv) {
  print_value_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
