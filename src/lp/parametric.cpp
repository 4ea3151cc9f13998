#include "lp/parametric.h"

#include <cmath>

namespace mintc::lp {

ParametricResult sweep_parameter(const std::function<Model(double)>& build, double lo, double hi,
                                 int samples, const SimplexSolver& solver, double slope_eps) {
  ParametricResult result;
  if (samples < 2 || hi <= lo) return result;

  const double step = (hi - lo) / (samples - 1);
  // Every sample is a cold solve of its own model, so each point is exactly
  // what solving that θ alone returns.
  for (int i = 0; i < samples; ++i) {
    const double theta = lo + step * i;
    const Solution s = solver.solve(build(theta));
    ParametricPoint p;
    p.theta = theta;
    p.status = s.status;
    p.objective = s.optimal() ? s.objective : 0.0;
    result.points.push_back(p);
  }

  // Recover maximal linear segments from consecutive optimal samples.
  const auto slope_at = [&](size_t i) {
    return (result.points[i + 1].objective - result.points[i].objective) / step;
  };
  size_t i = 0;
  while (i + 1 < result.points.size()) {
    if (result.points[i].status != SolveStatus::kOptimal ||
        result.points[i + 1].status != SolveStatus::kOptimal) {
      ++i;
      continue;
    }
    ParametricSegment seg;
    seg.theta_begin = result.points[i].theta;
    seg.value_begin = result.points[i].objective;
    seg.slope = slope_at(i);
    size_t j = i + 1;
    while (j + 1 < result.points.size() &&
           result.points[j + 1].status == SolveStatus::kOptimal &&
           std::fabs(slope_at(j) - seg.slope) <= slope_eps) {
      ++j;
    }
    seg.theta_end = result.points[j].theta;
    result.segments.push_back(seg);
    i = j;
  }
  return result;
}

}  // namespace mintc::lp
