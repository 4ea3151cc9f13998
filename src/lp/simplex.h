// Dense two-phase primal simplex.
//
// This mirrors the solver described in the paper's Section V: "a
// dense-matrix LP solver which implements the standard simplex algorithm".
// It is deliberately a textbook implementation — the SMO LPs are small
// (constraints grow linearly in the latch count, Section IV) — with the
// usual robustness measures:
//
//   * general bounds: finite lower bounds are shifted out, free variables
//     are split, finite upper bounds become explicit rows;
//   * phase 1 minimizes the sum of artificial variables; basic artificials
//     are driven out of the basis (redundant rows are dropped);
//   * Dantzig pricing with an automatic switch to Bland's rule after a run
//     of degenerate pivots, which guarantees termination;
//   * duals and row activities are reported so the caller can identify
//     tight constraints (the paper's "critical segments").
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"

namespace mintc::lp {

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

const char* to_string(SolveStatus status);

struct SolveStats {
  int phase1_pivots = 0;
  int phase2_pivots = 0;
  int degenerate_pivots = 0;  // pivots that left the objective unchanged
  int rows = 0;     // tableau rows after preprocessing
  int cols = 0;     // tableau columns after preprocessing
  bool used_bland = false;
};

/// Result of a solve. `x`, `duals` and `activity` are indexed like the
/// model's variables and rows; they are only meaningful when
/// status == kOptimal.
struct Solution {
  SolveStatus status = SolveStatus::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;
  std::vector<double> duals;
  std::vector<double> activity;
  SolveStats stats;

  bool optimal() const { return status == SolveStatus::kOptimal; }

  /// Slack of row r: rhs - activity for <=, activity - rhs for >=,
  /// |activity - rhs| for ==. Zero slack means the row is tight (critical).
  double row_slack(const Model& model, int r) const;
};

class SimplexSolver {
 public:
  struct Options {
    int max_pivots = 200000;  // hard iteration cap across both phases
    bool bland_from_start = false;
  };

  SimplexSolver() = default;
  explicit SimplexSolver(Options options) : options_(options) {}

  /// Solve the model. Never throws on infeasible/unbounded input; those are
  /// reported in Solution::status.
  Solution solve(const Model& model) const;

  const Options& options() const { return options_; }

 private:
  Solution solve_impl(const Model& model) const;

  Options options_;
};

}  // namespace mintc::lp
