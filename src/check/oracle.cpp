#include "check/oracle.h"

#include <algorithm>
#include <cmath>

namespace mintc::check {

namespace {

double update(const Circuit& circuit, const ClockSchedule& schedule,
              const std::vector<double>& departure, int i) {
  const Element& e = circuit.element(i);
  if (!e.is_latch()) return 0.0;
  double best = 0.0;
  for (const int p : circuit.fanin(i)) {
    const CombPath& path = circuit.path(p);
    const Element& src = circuit.element(path.from);
    const double a = departure[static_cast<size_t>(path.from)] + (src.dq + path.delay) +
                     schedule.shift(src.phase, e.phase);
    best = std::max(best, a);
  }
  return best;
}

}  // namespace

sta::FixpointResult jacobi_departures(const Circuit& circuit, const ClockSchedule& schedule,
                                      std::vector<double> initial,
                                      const sta::FixpointOptions& options) {
  const int l = circuit.num_elements();
  double bound = std::fabs(schedule.cycle) * (circuit.num_phases() + 1) + 1.0;
  for (const Element& e : circuit.elements()) bound += e.dq;
  for (const CombPath& p : circuit.paths()) bound += p.delay;

  sta::FixpointResult res;
  res.departure = std::move(initial);
  std::vector<double> next(static_cast<size_t>(l), 0.0);
  const int max_sweeps = options.effective_max_sweeps(l);
  bool changed = true;
  while (changed && !res.diverged && res.sweeps < max_sweeps) {
    changed = false;
    for (int i = 0; i < l; ++i) {
      const double v = update(circuit, schedule, res.departure, i);
      next[static_cast<size_t>(i)] = v;
      if (std::fabs(v - res.departure[static_cast<size_t>(i)]) > options.eps) changed = true;
      if (v > bound) res.diverged = true;
    }
    res.departure.swap(next);
    res.updates += l;
    ++res.sweeps;
  }
  res.converged = !changed && !res.diverged;
  res.status = res.converged   ? sta::FixpointStatus::kConverged
               : res.diverged ? sta::FixpointStatus::kDiverged
                              : sta::FixpointStatus::kSweepLimit;
  for (int i = 0; i < l; ++i) {
    const double delta = std::fabs(update(circuit, schedule, res.departure, i) -
                                   res.departure[static_cast<size_t>(i)]);
    res.residual = std::max(res.residual, delta);
  }
  return res;
}

}  // namespace mintc::check
