// Circuit-level parametric delay sweeps.
//
// Varying one combinational delay Δ_ij only moves the RHS of its L2R row,
// so Tc*(Δ_ij) is piecewise-linear; this module regenerates curves like the
// paper's Fig. 7 (Tc versus Δ41) and reports the recovered linear segments
// (slope 0 / ½ / 1 in the paper's example 1).
#pragma once

#include "lp/parametric.h"
#include "model/circuit.h"
#include "opt/constraints.h"

namespace mintc::opt {

/// Sweep the worst-case delay of path `path_index` over [lo, hi] with
/// `samples` uniform points, solving P2 at each. Theorem 1 makes the LP
/// optimum equal to the P1 optimum, so no fixpoint step is needed for the
/// curve itself.
lp::ParametricResult sweep_path_delay(const Circuit& circuit, int path_index, double lo,
                                      double hi, int samples,
                                      const GeneratorOptions& options = {});

/// Skew-tolerance curve: sweep a uniform per-latch clock skew σ over
/// [lo, hi], setting every element's skew to σ and solving P2 at each
/// sample. Skew only moves setup/hold RHS terms and the C3 nonoverlap
/// margin, so Tc*(σ) is piecewise-linear like the delay sweeps. The curve's
/// knees locate how much clock uncertainty a design absorbs before each
/// constraint family goes critical.
lp::ParametricResult sweep_clock_skew(const Circuit& circuit, double lo, double hi,
                                      int samples, const GeneratorOptions& options = {});

}  // namespace mintc::opt
