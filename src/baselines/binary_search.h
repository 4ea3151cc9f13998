// Fixed-shape cycle-time search, and the NRIP reconstruction.
//
// Given a fixed clock *shape* (relative phase starts/widths as fractions of
// the period), the exact analysis engine decides feasibility for any
// concrete Tc; feasibility is monotone in Tc for a fixed shape, so a
// bounded binary search (Agrawal's approach, Section II) finds the minimum
// Tc attainable *with that shape*.
//
// NRIP reconstruction: the paper compares MLP against Dagenais/Rumin's NRIP
// algorithm and explains its suboptimality by its "implicit minimum
// constraints on phase widths and separations". The NRIP paper's full
// procedure is not reproduced here (see DESIGN.md §4); instead
// nrip_reconstruction() searches over the canonical symmetric clock
// (equal slots, maximal widths) with exact latch-level borrowing. On the
// paper's example 1 this reproduces NRIP's published behaviour: optimal at
// Δ41 = 60 ns, strictly above the MLP optimum elsewhere, and a unique
// schedule for each Tc.
#pragma once

#include <string>
#include <vector>

#include "baselines/edge_triggered.h"
#include "model/circuit.h"

namespace mintc::baselines {

/// A clock shape: starts/widths as fractions of the period.
struct ClockShape {
  std::vector<double> start_frac;
  std::vector<double> width_frac;

  ClockSchedule at_cycle(double tc) const;
  static ClockShape symmetric(int num_phases, double duty = 1.0);
};

/// The absolute Tc tolerance of every fixed-shape binary search.
inline constexpr double kSearchTol = 1e-6;

struct BinarySearchOptions {
  double hi_limit = 1e9;   // give up if no feasible Tc below this
  bool check_hold = false;
};

/// Agrawal-style bounded binary search over Tc with the given shape.
BaselineResult fixed_shape_search(const Circuit& circuit, const ClockShape& shape,
                                  const BinarySearchOptions& options = {});

/// The NRIP reconstruction: fixed_shape_search over the symmetric clock.
BaselineResult nrip_reconstruction(const Circuit& circuit,
                                   const BinarySearchOptions& options = {});

/// One level up from NRIP: search symmetric clocks over `steps` duty-cycle
/// values in (0, 1] and return the best. Still a restricted family, so the
/// result remains an upper bound on the MLP optimum — a useful middle point
/// between "one fixed clock shape" and the full LP.
BaselineResult best_duty_search(const Circuit& circuit, int steps = 20,
                                const BinarySearchOptions& options = {});

}  // namespace mintc::baselines
