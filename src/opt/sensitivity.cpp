#include "opt/sensitivity.h"

#include "lp/simplex.h"
#include "opt/constraints.h"

namespace mintc::opt {

Expected<SensitivityReport> delay_sensitivities(const Circuit& circuit,
                                                const MlpOptions& options) {
  if (!circuit.validate().empty()) {
    return make_error(ErrorKind::kInvalidCircuit,
                      "circuit '" + circuit.name() + "' failed validation");
  }
  const GeneratedLp gen = generate_lp(circuit, options.generator);
  const lp::Solution sol = lp::SimplexSolver(options.lp).solve(gen.model);
  if (sol.status != lp::SolveStatus::kOptimal) {
    return make_error(sol.status == lp::SolveStatus::kInfeasible ? ErrorKind::kInfeasible
                                                                 : ErrorKind::kNotConverged,
                      "P2 did not solve to optimality for sensitivities");
  }
  SensitivityReport report;
  report.min_cycle = sol.objective;
  report.dtc_ddelay.assign(static_cast<size_t>(circuit.num_paths()), 0.0);
  for (int p = 0; p < circuit.num_paths(); ++p) {
    const int row = gen.delay_row_of_path[static_cast<size_t>(p)];
    if (row < 0) continue;
    const double dual = sol.duals[static_cast<size_t>(row)];
    // L2R rows carry +Δ on a >= RHS (dual = slope directly); FF setup rows
    // carry -Δ on a <= RHS (slope = -dual).
    const bool ff_row = !circuit.element(circuit.path(p).to).is_latch();
    report.dtc_ddelay[static_cast<size_t>(p)] = ff_row ? -dual : dual;
  }
  return report;
}

}  // namespace mintc::opt
