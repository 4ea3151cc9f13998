#include "opt/session.h"

#include <utility>

#include "lp/simplex.h"
#include "opt/constraints.h"

namespace mintc::opt {

CycleTimeSession::CycleTimeSession(Circuit circuit, MlpOptions options)
    : circuit_(std::move(circuit)), options_(std::move(options)) {}

void CycleTimeSession::set_path_delay(int p, double delay) {
  circuit_.set_path_delay(p, delay);
}

void CycleTimeSession::set_path_min_delay(int p, double min_delay) {
  circuit_.set_path_min_delay(p, min_delay);
}

void CycleTimeSession::set_element_dq(int e, double dq) {
  // Editing Δ_DQ can violate Δ_DQ >= Δ_DC, so the next solve re-validates.
  circuit_.element(e).dq = dq;
  validated_ = false;
}

void CycleTimeSession::set_element_skew(int e, double skew) {
  circuit_.element(e).skew = skew;
  validated_ = false;
}

bool CycleTimeSession::ensure_valid() {
  if (validated_) return true;
  if (!circuit_.validate().empty()) return false;
  validated_ = true;
  return true;
}

Expected<MlpResult> CycleTimeSession::minimize() {
  MlpOptions opts = options_;
  opts.basis_hint = basis_;
  opts.assume_valid = ensure_valid();  // false -> engine re-validates and reports
  ++counters_.lp_solves;
  Expected<MlpResult> res = minimize_cycle_time(circuit_, opts);
  if (res) {
    if (res->lp_stats.warm_started) ++counters_.warm_lp_starts;
    if (res->lp_stats.warm_rejected) ++counters_.lp_fallbacks;
    basis_ = res->basis;
  }
  return res;
}

Expected<SensitivityReport> CycleTimeSession::sensitivities() {
  if (!ensure_valid()) {
    return make_error(ErrorKind::kInvalidCircuit,
                      "circuit '" + circuit_.name() + "' failed validation");
  }
  const GeneratedLp gen = generate_lp(circuit_, options_.generator);
  ++counters_.lp_solves;
  const lp::Solution sol =
      lp::SimplexSolver(options_.lp).solve(gen.model, basis_.empty() ? nullptr : &basis_);
  if (sol.stats.warm_started) ++counters_.warm_lp_starts;
  if (sol.stats.warm_rejected) ++counters_.lp_fallbacks;
  if (sol.status != lp::SolveStatus::kOptimal) {
    return make_error(sol.status == lp::SolveStatus::kInfeasible ? ErrorKind::kInfeasible
                                                                 : ErrorKind::kNotConverged,
                      "P2 did not solve to optimality for sensitivities");
  }
  basis_ = sol.basis;
  SensitivityReport report;
  report.min_cycle = sol.objective;
  report.dtc_ddelay.assign(static_cast<size_t>(circuit_.num_paths()), 0.0);
  for (int p = 0; p < circuit_.num_paths(); ++p) {
    const int row = gen.delay_row_of_path[static_cast<size_t>(p)];
    if (row < 0) continue;
    const double dual = sol.duals[static_cast<size_t>(row)];
    // L2R rows carry +Δ on a >= RHS (dual = slope directly); FF setup rows
    // carry -Δ on a <= RHS (slope = -dual).
    const bool ff_row = !circuit_.element(circuit_.path(p).to).is_latch();
    report.dtc_ddelay[static_cast<size_t>(p)] = ff_row ? -dual : dual;
  }
  return report;
}

}  // namespace mintc::opt
