#include "baselines/binary_search.h"

#include <cassert>

#include "sta/analysis.h"

namespace mintc::baselines {

ClockSchedule ClockShape::at_cycle(double tc) const {
  ClockSchedule sch;
  sch.cycle = tc;
  for (const double f : start_frac) sch.start.push_back(f * tc);
  for (const double f : width_frac) sch.width.push_back(f * tc);
  return sch;
}

ClockShape ClockShape::symmetric(int num_phases, double duty) {
  assert(num_phases >= 1 && duty > 0.0 && duty <= 1.0);
  ClockShape shape;
  for (int p = 0; p < num_phases; ++p) {
    shape.start_frac.push_back(static_cast<double>(p) / num_phases);
    shape.width_frac.push_back(duty / num_phases);
  }
  return shape;
}

BaselineResult fixed_shape_search(const Circuit& circuit, const ClockShape& shape,
                                  const BinarySearchOptions& options) {
  sta::AnalysisOptions analysis;
  analysis.check_hold = options.check_hold;

  const auto feasible_at = [&](double tc) {
    return sta::check_schedule(circuit, shape.at_cycle(tc), analysis).feasible;
  };

  BaselineResult res;
  res.method = "fixed-shape binary search";

  // Bound the search: start from the CPM estimate and double until feasible.
  double hi = std::max(1.0, edge_triggered_cpm(circuit).cycle);
  while (!feasible_at(hi)) {
    hi *= 2.0;
    if (hi > options.hi_limit) {
      res.cycle = hi;
      res.schedule = shape.at_cycle(hi);
      res.feasible = false;
      return res;
    }
  }
  double lo = 0.0;
  while (hi - lo > kSearchTol) {
    const double mid = 0.5 * (lo + hi);
    if (feasible_at(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  res.cycle = hi;
  res.schedule = shape.at_cycle(hi);
  res.feasible = true;
  return res;
}

BaselineResult nrip_reconstruction(const Circuit& circuit, const BinarySearchOptions& options) {
  BaselineResult res =
      fixed_shape_search(circuit, ClockShape::symmetric(circuit.num_phases()), options);
  res.method = "NRIP (reconstruction)";
  return res;
}

BaselineResult best_duty_search(const Circuit& circuit, int steps,
                                const BinarySearchOptions& options) {
  assert(steps >= 1);
  BaselineResult best;
  best.method = "best-duty symmetric search";
  best.feasible = false;
  for (int i = 1; i <= steps; ++i) {
    const double duty = static_cast<double>(i) / steps;
    BaselineResult r = fixed_shape_search(
        circuit, ClockShape::symmetric(circuit.num_phases(), duty), options);
    if (!r.feasible) continue;
    if (!best.feasible || r.cycle < best.cycle) {
      r.method = "best-duty symmetric search (duty " + std::to_string(duty) + ")";
      best = std::move(r);
    }
  }
  return best;
}

}  // namespace mintc::baselines
