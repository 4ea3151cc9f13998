// Ablation of the MLP fixpoint update (paper Section IV remarks): the
// Jacobi iteration as printed (the check/ oracle) vs the engine, which
// sweeps each strongly connected component Gauss-Seidel in topological
// order ("obviously possible"; LEADOUT's SCC partition confines the sweeps
// to feedback loops, much as the suggested "only calculate the departure
// times which have changed" mechanism would).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "base/table.h"
#include "check/oracle.h"
#include "circuits/example1.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "opt/mlp.h"
#include "sta/fixpoint.h"

using namespace mintc;

namespace {

Circuit big_circuit() {
  circuits::SyntheticParams p;
  p.num_phases = 2;
  p.num_stages = 24;
  p.latches_per_stage = 4;
  p.fanin = 3;
  return circuits::synthetic_circuit(p, 4242);
}

void print_sweep_table() {
  std::printf("== MLP fixpoint: Jacobi oracle vs SCC-ordered engine ==\n");
  TextTable table({"circuit", "update", "sweeps", "updates", "Tc*"});
  struct Named {
    const char* name;
    Circuit circuit;
  };
  const Named circuits_list[] = {{"example1(d41=120)", circuits::example1(120.0)},
                                 {"gaas", circuits::gaas_datapath()},
                                 {"synthetic(l=96)", big_circuit()}};
  for (const auto& [name, circuit] : circuits_list) {
    const auto r = opt::minimize_cycle_time(circuit);
    if (!r) continue;
    char tc[32];
    std::snprintf(tc, sizeof tc, "%.4g", r->min_cycle);
    // Both slide from the same LP point under the LP-optimal schedule.
    const sta::FixpointResult jacobi =
        check::jacobi_departures(circuit, r->schedule, r->lp_departure);
    table.add_row({name, "jacobi (oracle)", std::to_string(jacobi.sweeps),
                   std::to_string(jacobi.updates), tc});
    table.add_row({name, "scc-ordered (engine)", std::to_string(r->fixpoint_sweeps),
                   std::to_string(r->fixpoint_updates), tc});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("paper: 'the update process usually terminated in two to three\n"
              "iterations (in some cases no iterations were even necessary).'\n"
              "(engine sweeps are the most any one component needed)\n\n");
}

void BM_FixpointFromZero(benchmark::State& state) {
  const Circuit c = big_circuit();
  const auto r = opt::minimize_cycle_time(c);
  if (!r) {
    state.SkipWithError("optimization failed");
    return;
  }
  const bool oracle = state.range(0) == 0;
  const std::vector<double> zero(static_cast<size_t>(c.num_elements()), 0.0);
  for (auto _ : state) {
    auto fix = oracle ? check::jacobi_departures(c, r->schedule, zero)
                      : sta::compute_departures(c, r->schedule, zero);
    benchmark::DoNotOptimize(fix);
  }
  state.SetLabel(oracle ? "jacobi (oracle)" : "scc-ordered (engine)");
}
BENCHMARK(BM_FixpointFromZero)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  print_sweep_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
