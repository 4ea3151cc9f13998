#include "lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "base/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mintc::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterLimit: return "iteration_limit";
  }
  return "?";
}

double Solution::row_slack(const Model& model, int r) const {
  const Row& row = model.row(r);
  const double a = activity.at(static_cast<size_t>(r));
  switch (row.sense) {
    case Sense::kLe: return row.rhs - a;
    case Sense::kGe: return a - row.rhs;
    case Sense::kEq: return -std::fabs(a - row.rhs);
  }
  return 0.0;
}

namespace {

// Pivot and feasibility tolerance.
constexpr double kEps = 1e-9;
// Degenerate pivots in a row before pricing switches to Bland's rule.
constexpr int kStallLimit = 64;

// How an original model variable maps into tableau columns.
struct VarMap {
  int pos = -1;       // column of the shifted nonnegative part
  int neg = -1;       // column of x^- when the variable is free
  double shift = 0.0; // finite lower bound subtracted out
};

// The working standard-form problem:  A x = b, x >= 0, b >= 0.
struct Standard {
  int m = 0;                       // rows
  int n = 0;                       // columns (structural + slack + artificial)
  std::vector<double> a;           // m x n, row-major
  std::vector<double> b;           // m
  std::vector<double> cost;        // n, phase-2 objective
  std::vector<bool> artificial;    // per column
  std::vector<int> basis;          // per row: basic column
  std::vector<int> row_origin;     // per row: original model row, or -1 for bound rows
  std::vector<int> dual_col;       // per row: column that carries +e_i (slack or artificial), -1 if none
  std::vector<double> dual_sign;   // per row: sign to apply to that column's reduced cost
  double c0 = 0.0;                 // objective constant from bound shifting

  double& at(int i, int j) { return a[static_cast<size_t>(i) * static_cast<size_t>(n) + static_cast<size_t>(j)]; }
  double at(int i, int j) const { return a[static_cast<size_t>(i) * static_cast<size_t>(n) + static_cast<size_t>(j)]; }
};

// Dense row operations for the tableau: rows of `a` plus parallel vectors.
class Tableau {
 public:
  explicit Tableau(Standard& s) : s_(s) {}

  // Reduced costs for the given cost vector, given the current basis.
  // r_j = c_j - y' a_j where y solves  y' B = c_B.
  // We maintain the tableau in explicitly reduced form instead: after every
  // pivot, a = B^{-1} A, so reduced costs are recomputed incrementally in the
  // `red_` row.
  void start_phase(const std::vector<double>& cost) {
    cost_ = cost;
    red_ = cost;
    obj_ = 0.0;
    // Make reduced costs consistent with the current basis: subtract
    // multiples of basic rows so that basic columns have zero reduced cost.
    for (int i = 0; i < s_.m; ++i) {
      const int bc = s_.basis[static_cast<size_t>(i)];
      const double cb = cost_[static_cast<size_t>(bc)];
      if (cb == 0.0) continue;
      for (int j = 0; j < s_.n; ++j) red_[static_cast<size_t>(j)] -= cb * s_.at(i, j);
      obj_ += cb * s_.b[static_cast<size_t>(i)];
    }
  }

  double objective() const { return obj_; }
  double reduced_cost(int j) const { return red_[static_cast<size_t>(j)]; }

  // Choose an entering column: most negative reduced cost (Dantzig) or the
  // lowest-index negative one (Bland). Banned columns are skipped.
  int choose_entering(bool bland, const std::vector<bool>& banned) const {
    int best = -1;
    double best_red = -kEps;
    for (int j = 0; j < s_.n; ++j) {
      if (banned[static_cast<size_t>(j)]) continue;
      const double r = red_[static_cast<size_t>(j)];
      if (r < best_red) {
        if (bland) return j;
        best_red = r;
        best = j;
      }
    }
    return best;
  }

  // Ratio test: choose the leaving row. Returns -1 if the column is
  // unbounded. Bland tie-break: smallest basic variable index.
  int choose_leaving(int entering, bool bland) const {
    int best_row = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < s_.m; ++i) {
      const double aij = s_.at(i, entering);
      if (aij <= kEps) continue;
      const double ratio = s_.b[static_cast<size_t>(i)] / aij;
      if (ratio < best_ratio - kEps) {
        best_ratio = ratio;
        best_row = i;
      } else if (ratio < best_ratio + kEps && best_row >= 0) {
        // Tie: prefer leaving artificials, then Bland's smallest index.
        const int cur = s_.basis[static_cast<size_t>(i)];
        const int prev = s_.basis[static_cast<size_t>(best_row)];
        const bool cur_art = s_.artificial[static_cast<size_t>(cur)];
        const bool prev_art = s_.artificial[static_cast<size_t>(prev)];
        if (cur_art && !prev_art) {
          best_row = i;
        } else if (bland && cur_art == prev_art && cur < prev) {
          best_row = i;
        }
      }
    }
    return best_row;
  }

  // Pivot on (row, col): scale the pivot row, eliminate the column from all
  // other rows and from the reduced-cost row.
  //
  // The elimination loop below is nearly all of an MLP solve's time, and its
  // speed depends on where it lands in the binary: timed on a 4-vCPU Xeon VM,
  // the same code ran 1.3-2x slower whenever the loop straddled a 64-byte
  // line, which an unrelated edit elsewhere in the program can cause. Aligning
  // the function pins the loop's offset within its line.
  __attribute__((aligned(64))) void pivot(int row, int col) {
    const double piv = s_.at(row, col);
    assert(std::fabs(piv) > kEps);
    const double inv = 1.0 / piv;
    for (int j = 0; j < s_.n; ++j) s_.at(row, j) *= inv;
    s_.b[static_cast<size_t>(row)] *= inv;
    s_.at(row, col) = 1.0;  // exact
    for (int i = 0; i < s_.m; ++i) {
      if (i == row) continue;
      const double f = s_.at(i, col);
      if (f == 0.0) continue;
      for (int j = 0; j < s_.n; ++j) s_.at(i, j) -= f * s_.at(row, j);
      s_.b[static_cast<size_t>(i)] -= f * s_.b[static_cast<size_t>(row)];
      s_.at(i, col) = 0.0;  // exact
      if (s_.b[static_cast<size_t>(i)] < 0.0 && s_.b[static_cast<size_t>(i)] > -kEps) {
        s_.b[static_cast<size_t>(i)] = 0.0;
      }
    }
    const double fr = red_[static_cast<size_t>(col)];
    if (fr != 0.0) {
      for (int j = 0; j < s_.n; ++j) red_[static_cast<size_t>(j)] -= fr * s_.at(row, j);
      obj_ += fr * s_.b[static_cast<size_t>(row)];
      red_[static_cast<size_t>(col)] = 0.0;  // exact
    }
    s_.basis[static_cast<size_t>(row)] = col;
  }

 private:
  Standard& s_;
  std::vector<double> cost_;
  std::vector<double> red_;
  double obj_ = 0.0;  // c_B' b accumulated; actual objective = -(...) handled by caller
};

}  // namespace

Solution SimplexSolver::solve(const Model& model) const {
  const obs::TraceSpan span("simplex.solve", "lp");
  Solution sol = solve_impl(model);
  auto& reg = obs::MetricsRegistry::instance();
  const long pivots = sol.stats.phase1_pivots + sol.stats.phase2_pivots;
  reg.counter("simplex.solves", {{"status", to_string(sol.status)}}).inc();
  reg.counter("simplex.pivots").inc(pivots);
  reg.counter("simplex.degenerate_pivots").inc(sol.stats.degenerate_pivots);
  if (sol.stats.used_bland) reg.counter("simplex.bland_switches").inc();
  reg.histogram("simplex.pivots_per_solve").observe(static_cast<double>(pivots));
  return sol;
}

Solution SimplexSolver::solve_impl(const Model& model) const {
  Solution sol;
  sol.x.assign(static_cast<size_t>(model.num_variables()), 0.0);
  sol.duals.assign(static_cast<size_t>(model.num_rows()), 0.0);
  sol.activity.assign(static_cast<size_t>(model.num_rows()), 0.0);

  // ---- 1. Transform variables: shift lower bounds, split free variables.
  std::vector<VarMap> vmap(static_cast<size_t>(model.num_variables()));
  int ncols = 0;
  for (int j = 0; j < model.num_variables(); ++j) {
    const Variable& v = model.variable(j);
    VarMap& mpj = vmap[static_cast<size_t>(j)];
    if (std::isfinite(v.lower)) {
      mpj.shift = v.lower;
      mpj.pos = ncols++;
    } else {
      mpj.pos = ncols++;
      mpj.neg = ncols++;
    }
  }
  const int n_struct = ncols;

  // ---- 2. Collect rows: model rows plus upper-bound rows.
  struct WorkRow {
    std::vector<std::pair<int, double>> terms;  // (column, coeff)
    Sense sense;
    double rhs;
    int origin;  // model row index or -1
    bool flipped = false;  // negated during RHS normalization
  };
  std::vector<WorkRow> work;
  work.reserve(static_cast<size_t>(model.num_rows()));
  for (int r = 0; r < model.num_rows(); ++r) {
    const Row& row = model.row(r);
    WorkRow w;
    w.sense = row.sense;
    w.rhs = row.rhs;
    w.origin = r;
    for (const LinearTerm& t : row.terms) {
      const VarMap& mpj = vmap[static_cast<size_t>(t.var)];
      w.terms.emplace_back(mpj.pos, t.coeff);
      if (mpj.neg >= 0) w.terms.emplace_back(mpj.neg, -t.coeff);
      w.rhs -= t.coeff * mpj.shift;
    }
    work.push_back(std::move(w));
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    const Variable& v = model.variable(j);
    if (!std::isfinite(v.upper)) continue;
    const VarMap& mpj = vmap[static_cast<size_t>(j)];
    WorkRow w;
    w.sense = Sense::kLe;
    w.rhs = v.upper - mpj.shift;
    w.origin = -1;
    w.terms.emplace_back(mpj.pos, 1.0);
    if (mpj.neg >= 0) w.terms.emplace_back(mpj.neg, -1.0);
    work.push_back(std::move(w));
  }

  // Normalize to nonnegative RHS.
  for (WorkRow& w : work) {
    if (w.rhs < 0.0) {
      for (auto& [col, coeff] : w.terms) coeff = -coeff;
      w.rhs = -w.rhs;
      if (w.sense == Sense::kLe) w.sense = Sense::kGe;
      else if (w.sense == Sense::kGe) w.sense = Sense::kLe;
      w.flipped = true;
    }
  }

  // ---- 3. Count slack/artificial columns and build the standard form.
  Standard s;
  s.m = static_cast<int>(work.size());
  int extra = 0;
  for (const WorkRow& w : work) {
    if (w.sense == Sense::kLe) extra += 1;          // slack
    else if (w.sense == Sense::kGe) extra += 2;     // surplus + artificial
    else extra += 1;                                 // artificial
  }
  s.n = n_struct + extra;
  s.a.assign(static_cast<size_t>(s.m) * static_cast<size_t>(s.n), 0.0);
  s.b.assign(static_cast<size_t>(s.m), 0.0);
  s.cost.assign(static_cast<size_t>(s.n), 0.0);
  s.artificial.assign(static_cast<size_t>(s.n), false);
  s.basis.assign(static_cast<size_t>(s.m), -1);
  s.row_origin.assign(static_cast<size_t>(s.m), -1);
  s.dual_col.assign(static_cast<size_t>(s.m), -1);
  s.dual_sign.assign(static_cast<size_t>(s.m), 1.0);

  // Phase-2 cost over structural columns.
  for (int j = 0; j < model.num_variables(); ++j) {
    const Variable& v = model.variable(j);
    if (v.objective == 0.0) continue;
    const VarMap& mpj = vmap[static_cast<size_t>(j)];
    s.cost[static_cast<size_t>(mpj.pos)] += v.objective;
    if (mpj.neg >= 0) s.cost[static_cast<size_t>(mpj.neg)] -= v.objective;
    s.c0 += v.objective * mpj.shift;
  }

  int next = n_struct;
  std::vector<double> phase1_cost(static_cast<size_t>(s.n), 0.0);
  for (int i = 0; i < s.m; ++i) {
    const WorkRow& w = work[static_cast<size_t>(i)];
    s.row_origin[static_cast<size_t>(i)] = w.origin;
    for (const auto& [col, coeff] : w.terms) s.at(i, col) += coeff;
    s.b[static_cast<size_t>(i)] = w.rhs;
    s.dual_sign[static_cast<size_t>(i)] = w.flipped ? 1.0 : -1.0;
    switch (w.sense) {
      case Sense::kLe: {
        const int slack = next++;
        s.at(i, slack) = 1.0;
        s.basis[static_cast<size_t>(i)] = slack;
        s.dual_col[static_cast<size_t>(i)] = slack;
        break;
      }
      case Sense::kGe: {
        const int surplus = next++;
        const int art = next++;
        s.at(i, surplus) = -1.0;
        s.at(i, art) = 1.0;
        s.artificial[static_cast<size_t>(art)] = true;
        phase1_cost[static_cast<size_t>(art)] = 1.0;
        s.basis[static_cast<size_t>(i)] = art;
        s.dual_col[static_cast<size_t>(i)] = art;
        break;
      }
      case Sense::kEq: {
        const int art = next++;
        s.at(i, art) = 1.0;
        s.artificial[static_cast<size_t>(art)] = true;
        phase1_cost[static_cast<size_t>(art)] = 1.0;
        s.basis[static_cast<size_t>(i)] = art;
        s.dual_col[static_cast<size_t>(i)] = art;
        break;
      }
    }
  }
  assert(next == s.n);
  sol.stats.rows = s.m;
  sol.stats.cols = s.n;

  Tableau tab(s);
  std::vector<bool> banned(static_cast<size_t>(s.n), false);

  auto run_phase = [&](const std::vector<double>& cost, int& pivots) -> SolveStatus {
    tab.start_phase(cost);
    bool bland = options_.bland_from_start;
    int stall = 0;
    double last_obj = tab.objective();
    while (true) {
      if (pivots + sol.stats.phase1_pivots + sol.stats.phase2_pivots >= options_.max_pivots) {
        return SolveStatus::kIterLimit;
      }
      const int entering = tab.choose_entering(bland, banned);
      if (entering < 0) return SolveStatus::kOptimal;  // phase optimum reached
      const int leaving = tab.choose_leaving(entering, bland);
      if (leaving < 0) return SolveStatus::kUnbounded;
      tab.pivot(leaving, entering);
      ++pivots;
      const double obj = tab.objective();
      if (std::fabs(obj - last_obj) <= kEps) {
        ++sol.stats.degenerate_pivots;
        if (++stall >= kStallLimit && !bland) {
          bland = true;
          sol.stats.used_bland = true;
        }
      } else {
        stall = 0;
        if (bland && !options_.bland_from_start) bland = false;
      }
      last_obj = obj;
    }
  };

  // ---- 4. Phase 1.
  const bool any_artificial =
      std::any_of(s.artificial.begin(), s.artificial.end(), [](bool v) { return v; });
  if (any_artificial) {
    const SolveStatus st = run_phase(phase1_cost, sol.stats.phase1_pivots);
    if (st == SolveStatus::kIterLimit) {
      sol.status = st;
      return sol;
    }
    if (st == SolveStatus::kUnbounded) {
      // Phase-1 objective is bounded below by 0; unbounded means a bug.
      log_error() << "simplex: phase-1 reported unbounded";
      sol.status = SolveStatus::kIterLimit;
      return sol;
    }
    // Infeasible if artificials cannot be driven to zero. tab.objective()
    // tracks c_B'b for the phase-1 cost, i.e. the artificial sum.
    double art_sum = 0.0;
    for (int i = 0; i < s.m; ++i) {
      const int bc = s.basis[static_cast<size_t>(i)];
      if (s.artificial[static_cast<size_t>(bc)]) art_sum += s.b[static_cast<size_t>(i)];
    }
    if (art_sum > 1e-7) {
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }
    // Drive basic artificials (at zero) out of the basis.
    for (int i = 0; i < s.m; ++i) {
      const int bc = s.basis[static_cast<size_t>(i)];
      if (!s.artificial[static_cast<size_t>(bc)]) continue;
      int piv_col = -1;
      for (int j = 0; j < s.n; ++j) {
        if (s.artificial[static_cast<size_t>(j)]) continue;
        if (std::fabs(s.at(i, j)) > 1e-8) {
          piv_col = j;
          break;
        }
      }
      if (piv_col >= 0) {
        tab.pivot(i, piv_col);
        ++sol.stats.phase1_pivots;
      } else {
        // Redundant row: every structural coefficient eliminated. Blank the
        // row so it can never constrain anything again.
        for (int j = 0; j < s.n; ++j) s.at(i, j) = 0.0;
        s.at(i, bc) = 1.0;
        s.b[static_cast<size_t>(i)] = 0.0;
      }
    }
    // Artificials may never re-enter.
    for (int j = 0; j < s.n; ++j) {
      if (s.artificial[static_cast<size_t>(j)]) banned[static_cast<size_t>(j)] = true;
    }
  }

  // ---- 5. Phase 2.
  const SolveStatus st2 = run_phase(s.cost, sol.stats.phase2_pivots);
  if (st2 != SolveStatus::kOptimal) {
    sol.status = st2;
    return sol;
  }

  // ---- 6. Extract primal solution.
  std::vector<double> xs(static_cast<size_t>(s.n), 0.0);
  for (int i = 0; i < s.m; ++i) {
    xs[static_cast<size_t>(s.basis[static_cast<size_t>(i)])] = s.b[static_cast<size_t>(i)];
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    const VarMap& mpj = vmap[static_cast<size_t>(j)];
    double v = xs[static_cast<size_t>(mpj.pos)];
    if (mpj.neg >= 0) v -= xs[static_cast<size_t>(mpj.neg)];
    sol.x[static_cast<size_t>(j)] = v + mpj.shift;
  }
  sol.objective = 0.0;
  for (int j = 0; j < model.num_variables(); ++j) {
    sol.objective += model.variable(j).objective * sol.x[static_cast<size_t>(j)];
  }

  // ---- 7. Duals and activities. y_i = dual_sign * reduced_cost(dual_col).
  for (int i = 0; i < s.m; ++i) {
    const int origin = s.row_origin[static_cast<size_t>(i)];
    if (origin < 0) continue;
    const int dc = s.dual_col[static_cast<size_t>(i)];
    if (dc < 0) continue;
    sol.duals[static_cast<size_t>(origin)] =
        s.dual_sign[static_cast<size_t>(i)] * tab.reduced_cost(dc);
  }
  for (int r = 0; r < model.num_rows(); ++r) {
    sol.activity[static_cast<size_t>(r)] = model.row_activity(r, sol.x);
  }

  sol.status = SolveStatus::kOptimal;
  return sol;
}

}  // namespace mintc::lp
