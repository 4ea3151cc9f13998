#include "baselines/unrolled.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace mintc::baselines {

UnrolledAnalysis unrolled_analysis(const Circuit& circuit, const ClockSchedule& schedule,
                                   int unroll_cycles) {
  return unrolled_analysis(TimingView(circuit), ShiftTable(schedule), unroll_cycles);
}

UnrolledAnalysis unrolled_analysis(const TimingView& view, const ShiftTable& shifts,
                                   int unroll_cycles) {
  const int l = view.num_elements();
  UnrolledAnalysis res;
  res.setup_ok = true;

  // Evaluate elements in ascending phase order: within one cycle, a C = 0
  // dependency always runs from a strictly earlier phase.
  std::vector<int> order(static_cast<size_t>(l));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return view.phase(a) < view.phase(b); });

  std::vector<double> prev(static_cast<size_t>(l), 0.0);  // cycle m-1
  std::vector<double> cur(static_cast<size_t>(l), 0.0);

  for (int m = 0; m < unroll_cycles; ++m) {
    for (const int i : order) {
      double arrival = -std::numeric_limits<double>::infinity();
      const EdgeIndex fi_end = view.fanin_end(i);
      for (EdgeIndex fe = view.fanin_begin(i); fe < fi_end; ++fe) {
        const int c = view.edge_cross(fe);
        if (m - c < 0) continue;  // token does not exist yet (power-on)
        const int src = view.edge_src(fe);
        const double d_src =
            (c == 0) ? cur[static_cast<size_t>(src)] : prev[static_cast<size_t>(src)];
        arrival =
            std::max(arrival, d_src + view.edge_max_const(fe) + shifts.at(view.edge_shift(fe)));
      }
      if (view.is_latch(i)) {
        cur[static_cast<size_t>(i)] = std::max(0.0, arrival);
        if (cur[static_cast<size_t>(i)] + view.setup_margin(i) >
            shifts.width(view.phase(i)) + 1e-9) {
          res.setup_ok = false;
          if (res.first_violation_cycle < 0) res.first_violation_cycle = m;
        }
      } else {
        cur[static_cast<size_t>(i)] = 0.0;
        if (arrival > -view.setup_margin(i) + 1e-9) {
          res.setup_ok = false;
          if (res.first_violation_cycle < 0) res.first_violation_cycle = m;
        }
      }
    }
    prev = cur;
  }
  res.final_departure = std::move(cur);
  return res;
}

BaselineResult atv_unrolled(const Circuit& circuit, const ClockShape& shape, int unroll_cycles,
                            const BinarySearchOptions& options) {
  // Build the flattened view once; only the shift table changes with Tc.
  const TimingView view(circuit);
  const auto feasible_at = [&](double tc) {
    return unrolled_analysis(view, ShiftTable(shape.at_cycle(tc)), unroll_cycles).setup_ok;
  };

  BaselineResult res;
  res.method = "ATV unrolled (n_c=" + std::to_string(unroll_cycles) + ")";

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
  // NOTE: deliberately *not* re-verified with the exact engine — this
  // baseline reports what ATV's bounded window would conclude. The caller
  // can (and the bench does) check it against sta::check_schedule.
  res.feasible = true;
  return res;
}

}  // namespace mintc::baselines
