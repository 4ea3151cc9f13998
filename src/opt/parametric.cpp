#include "opt/parametric.h"

namespace mintc::opt {

lp::ParametricResult sweep_path_delay(const Circuit& circuit, int path_index, double lo,
                                      double hi, int samples, const GeneratorOptions& options) {
  const lp::SimplexSolver solver;
  // One scratch circuit mutated per sample replaces the full per-θ copy.
  Circuit scratch = circuit;
  return lp::sweep_parameter(
      [&](double theta) {
        scratch.set_path_delay(path_index, theta);
        return generate_lp(scratch, options).model;
      },
      lo, hi, samples, solver);
}

lp::ParametricResult sweep_clock_skew(const Circuit& circuit, double lo, double hi,
                                      int samples, const GeneratorOptions& options) {
  const lp::SimplexSolver solver;
  // Broadcast σ through the per-element Element::skew field, the path every
  // other engine reads.
  Circuit scratch = circuit;
  return lp::sweep_parameter(
      [&](double theta) {
        for (int i = 0; i < scratch.num_elements(); ++i) {
          scratch.element(i).skew = theta;
        }
        return generate_lp(scratch, options).model;
      },
      lo, hi, samples, solver);
}

}  // namespace mintc::opt
