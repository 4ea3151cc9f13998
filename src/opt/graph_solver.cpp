#include "opt/graph_solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "baselines/edge_triggered.h"
#include "graph/cycle_ratio.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sta/fixpoint.h"

namespace mintc::opt {

namespace {

// The exact solver's thresholds, as fractions of the largest |a| in the
// system: a Bellman-Ford relaxation must gain more than kRelaxRelTol of it,
// and Howard's policy improvement more than kHowardRelTol.
constexpr double kRelaxRelTol = 1e-12;
constexpr double kHowardRelTol = 1e-9;
// Newton steps plus ulp raises before certification gives up.
constexpr int kMaxCertifyRounds = 64;
// The binary search's absolute Tc tolerance, and the Tc above which it
// reports the circuit infeasible.
constexpr double kSearchTol = 1e-7;
constexpr double kSearchLimit = 1e12;

// Which P2 row (or variable bound) a difference edge encodes, for naming
// the rows of a critical cycle the way generate_lp names them.
enum class RowKind : std::uint8_t {
  kWidthLeTc,       // C1:T<p><=Tc           i = phase
  kStartLeTc,       // C1:s<p><=Tc           i = phase
  kStartBound,      // C4 bound s<p> >= 0    i = phase
  kWidthBound,      // C4 bound T<p> >= 0    i = phase
  kMinWidth,        // EXT:minwidth:T<p>     i = phase
  kOrdering,        // C2:s<p><=s<p+1>       i = phase
  kNonoverlap,      // C3:phi<i>/phi<j>      i, j = phases
  kDepartureBound,  // L3 bound D(e) >= 0    i = element
  kSetup,           // L1:setup(e)           i = element
  kArrivalSetup,    // L1A:setup(e<-src)     i = path
  kFlipFlopPin,     // FF:pin(e)             i = element
  kFlipFlopSetup,   // FF:setup(e<-src)      i = path
  kHold,            // HOLD:e<-src           i = path
  kPropagation,     // L2R:src->e            i = path
};

// The P2 row (or variable bound) a difference row encodes.
struct RowTag {
  RowKind kind = RowKind::kWidthLeTc;
  int i = 0;
  int j = 0;
};

// The difference system for a circuit, as flat arrays: row r is
//     x_u[r] - x_v[r] <= base[r] + tc_coeff[r] * Tc,
// and encodes tag[r]. Node 0 is the time origin; phases contribute
// start/end nodes; every element contributes an absolute-departure node.
struct DiffSystem {
  int num_nodes = 0;
  std::vector<int> u, v;
  std::vector<double> base, tc_coeff;
  std::vector<RowTag> tag;
  std::vector<int> s_node, e_node, d_node;

  size_t num_rows() const { return u.size(); }
  void reserve(size_t rows) {
    u.reserve(rows);
    v.reserve(rows);
    base.reserve(rows);
    tc_coeff.reserve(rows);
    tag.reserve(rows);
  }
  void add(RowKind kind, int i, int xu, int xv, double a, double k = 0.0, int j = 0) {
    u.push_back(xu);
    v.push_back(xv);
    base.push_back(a);
    tc_coeff.push_back(k);
    tag.push_back({kind, i, j});
  }
  // The rows without a Tc term, in order, over the same nodes.
  DiffSystem tc_free() const {
    DiffSystem out;
    out.num_nodes = num_nodes;
    out.reserve(num_rows());
    for (size_t r = 0; r < num_rows(); ++r) {
      if (tc_coeff[r] != 0.0) continue;
      out.add(tag[r].kind, tag[r].i, u[r], v[r], base[r], tc_coeff[r], tag[r].j);
    }
    return out;
  }
};

DiffSystem build_system(const Circuit& circuit, const TimingView& view,
                        const GeneratorOptions& opt) {
  DiffSystem sys;
  const int k = circuit.num_phases();
  const int l = circuit.num_elements();
  sys.num_nodes = 1 + 2 * k + l;
  // At most five rows a phase, one per ordered phase pair, three an element
  // and three a path.
  sys.reserve(static_cast<size_t>(5 * k + k * k + 3 * l + 3 * circuit.num_paths()));
  for (int p = 0; p < k; ++p) {
    sys.s_node.push_back(1 + p);
    sys.e_node.push_back(1 + k + p);
  }
  for (int i = 0; i < l; ++i) sys.d_node.push_back(1 + 2 * k + i);
  const auto s_of = [&](int phase) { return sys.s_node[static_cast<size_t>(phase - 1)]; };
  const auto e_of = [&](int phase) { return sys.e_node[static_cast<size_t>(phase - 1)]; };

  // C1 + C4: 0 <= s_i <= Tc, 0 <= T_i <= Tc (as e_i - s_i).
  for (int p = 1; p <= k; ++p) {
    sys.add(RowKind::kStartLeTc, p, s_of(p), 0, 0.0, 1.0);      // s - x0 <= Tc
    sys.add(RowKind::kStartBound, p, 0, s_of(p), 0.0);          // x0 - s <= 0
    sys.add(RowKind::kWidthLeTc, p, e_of(p), s_of(p), 0.0, 1.0);  // T <= Tc
    sys.add(RowKind::kWidthBound, p, s_of(p), e_of(p), 0.0);      // T >= 0
    if (opt.min_phase_width > 0.0) {
      sys.add(RowKind::kMinWidth, p, s_of(p), e_of(p), -opt.min_phase_width);  // T >= width
    }
  }
  // C2 ordering.
  for (int p = 1; p < k; ++p) sys.add(RowKind::kOrdering, p, s_of(p), s_of(p + 1), 0.0);
  // C3 nonoverlap, with generate_lp's margin.
  if (opt.enforce_nonoverlap) {
    const KMatrix K = circuit.k_matrix();
    const double margin = nonoverlap_margin(circuit, opt);
    for (int i = 1; i <= k; ++i) {
      for (int j = 1; j <= k; ++j) {
        if (!K.at(i, j)) continue;
        // e_j - s_i <= C_ji*Tc - margin
        sys.add(RowKind::kNonoverlap, i, e_of(j), s_of(i), -margin,
                static_cast<double>(c_flag(j, i)), j);
      }
    }
  }

  for (int i = 0; i < l; ++i) {
    const int p = view.phase(i);
    // Per-element capture margins: setup or hold plus σ_i, as generate_lp.
    const double setup_skew = view.setup_margin(i);
    const double hold_skew = view.hold_margin(i);
    const int dn = sys.d_node[static_cast<size_t>(i)];
    const EdgeIndex fi_end = view.fanin_end(i);
    // L3: D >= 0  ->  s_p - dh <= 0.
    sys.add(RowKind::kDepartureBound, i, s_of(p), dn, 0.0);
    if (view.is_latch(i)) {
      if (!opt.arrival_based_setup) {
        // L1: dh - e_p <= -setup - skew.
        sys.add(RowKind::kSetup, i, dn, e_of(p), -setup_skew);
      } else {
        for (EdgeIndex fe = view.fanin_begin(i); fe < fi_end; ++fe) {
          // A_i + setup <= T_p: dh_j - e_p <= C*Tc - dq - delta - setup.
          sys.add(RowKind::kArrivalSetup, view.edge_path(fe),
                  sys.d_node[static_cast<size_t>(view.edge_src(fe))], e_of(p),
                  -(view.edge_max_const(fe) + setup_skew),
                  static_cast<double>(view.edge_cross(fe)));
        }
      }
    } else {
      // Flip-flop pin: dh == s_p.
      sys.add(RowKind::kFlipFlopPin, i, dn, s_of(p), 0.0);
      sys.add(RowKind::kFlipFlopPin, i, s_of(p), dn, 0.0);
      // FF setup: dh_j - s_p <= C*Tc - dq - delta - setup.
      for (EdgeIndex fe = view.fanin_begin(i); fe < fi_end; ++fe) {
        sys.add(RowKind::kFlipFlopSetup, view.edge_path(fe),
                sys.d_node[static_cast<size_t>(view.edge_src(fe))], s_of(p),
                -(view.edge_max_const(fe) + setup_skew),
                static_cast<double>(view.edge_cross(fe)));
      }
    }
    // Hold extension.
    if (opt.hold_constraints) {
      for (EdgeIndex fe = view.fanin_begin(i); fe < fi_end; ++fe) {
        const double c = static_cast<double>(view.edge_cross(fe));
        const double rhs_base = -(hold_skew - view.edge_min_const(fe));
        const int src_phase = view.phase(view.edge_src(fe));
        if (view.is_latch(i)) {
          // e_p - s_pj <= (1-C)*Tc - hold + delta.
          sys.add(RowKind::kHold, view.edge_path(fe), e_of(p), s_of(src_phase), rhs_base,
                  1.0 - c);
        } else {
          sys.add(RowKind::kHold, view.edge_path(fe), s_of(p), s_of(src_phase), rhs_base,
                  1.0 - c);
        }
      }
    }
  }

  // L2R propagation: dh_j - dh_i <= C*Tc - dq_j - delta_ji.
  for (int pi = 0; pi < circuit.num_paths(); ++pi) {
    const EdgeIndex fe = view.edge_of_path(pi);
    if (!view.is_latch(view.edge_dst(fe))) continue;
    sys.add(RowKind::kPropagation, pi, sys.d_node[static_cast<size_t>(view.edge_src(fe))],
            sys.d_node[static_cast<size_t>(view.edge_dst(fe))], -view.edge_max_const(fe),
            static_cast<double>(view.edge_cross(fe)));
  }
  return sys;
}

// generate_lp's name for the row a tag names.
std::string row_name(const Circuit& circuit, const RowTag& e) {
  const std::string p = std::to_string(e.i);
  const auto path_ends = [&](const char* sep) {
    const CombPath& path = circuit.path(e.i);
    return circuit.element(path.to).name + sep + circuit.element(path.from).name;
  };
  switch (e.kind) {
    case RowKind::kWidthLeTc: return "C1:T" + p + "<=Tc";
    case RowKind::kStartLeTc: return "C1:s" + p + "<=Tc";
    case RowKind::kStartBound: return "C4:s" + p + ">=0";
    case RowKind::kWidthBound: return "C4:T" + p + ">=0";
    case RowKind::kMinWidth: return "EXT:minwidth:T" + p;
    case RowKind::kOrdering: return "C2:s" + p + "<=s" + std::to_string(e.i + 1);
    case RowKind::kNonoverlap: return "C3:phi" + p + "/phi" + std::to_string(e.j);
    case RowKind::kDepartureBound: return "L3:D(" + circuit.element(e.i).name + ")>=0";
    case RowKind::kSetup: return "L1:setup(" + circuit.element(e.i).name + ")";
    case RowKind::kArrivalSetup: return "L1A:setup(" + path_ends("<-") + ")";
    case RowKind::kFlipFlopPin: return "FF:pin(" + circuit.element(e.i).name + ")";
    case RowKind::kFlipFlopSetup: return "FF:setup(" + path_ends("<-") + ")";
    case RowKind::kHold: return "HOLD:" + path_ends("<-");
    case RowKind::kPropagation: {
      const CombPath& path = circuit.path(e.i);
      return "L2R:" + circuit.element(path.from).name + "->" + circuit.element(path.to).name;
    }
  }
  return "?";
}

// A cycle of the parent graph, where parent[u] is the row that last lowered
// x_u, as row ids in constraint-graph order (each row's u is the next row's
// v); empty when the parent graph is a forest. Every such cycle is a
// negative cycle of the system.
std::vector<int> parent_cycle(const DiffSystem& sys, const std::vector<int>& parent) {
  std::vector<int> walk_of(static_cast<size_t>(sys.num_nodes), -1);
  for (int start = 0; start < sys.num_nodes; ++start) {
    int u = start;
    while (u >= 0 && walk_of[static_cast<size_t>(u)] < 0) {
      walk_of[static_cast<size_t>(u)] = start;
      const int r = parent[static_cast<size_t>(u)];
      u = r < 0 ? -1 : sys.v[static_cast<size_t>(r)];
    }
    if (u < 0 || walk_of[static_cast<size_t>(u)] != start) continue;  // reached an old walk
    std::vector<int> cycle;
    int node = u;
    do {
      const int r = parent[static_cast<size_t>(node)];
      cycle.push_back(r);
      node = sys.v[static_cast<size_t>(r)];
    } while (node != u);
    std::reverse(cycle.begin(), cycle.end());
    return cycle;
  }
  return {};
}

// Bellman-Ford over the difference system at a concrete Tc, from a virtual
// source (every potential starts at 0), relaxing only improvements larger
// than `eps`, in row order. Each row's weight base + tc_coeff * Tc is
// computed once per run. Returns true once a pass lowers nothing: `x` then
// meets every row to within eps, shifted so x[0] == 0. When `cycle` is
// given, a run that does not settle within num_nodes passes keeps going (up
// to twice that) until its parent graph closes a cycle, and returns that
// negative cycle (or none, if the budget runs out first).
bool feasible_at(const DiffSystem& sys, double tc, double eps, std::vector<double>& x,
                 long& relaxations, std::vector<int>* cycle = nullptr) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool tracing = tracer.enabled();
  const obs::TraceSpan span("graph.bellman-ford", "opt");
  const size_t rows = sys.num_rows();
  std::vector<double> w(rows);
  for (size_t r = 0; r < rows; ++r) w[r] = sys.base[r] + sys.tc_coeff[r] * tc;
  x.assign(static_cast<size_t>(sys.num_nodes), 0.0);
  std::vector<int> parent;
  if (cycle != nullptr) {
    cycle->clear();
    parent.assign(static_cast<size_t>(sys.num_nodes), -1);
  }
  const int max_passes = cycle != nullptr ? 2 * sys.num_nodes : sys.num_nodes;
  for (int pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    long pass_improvements = 0;  // relaxation-round record, kept when tracing
    for (size_t r = 0; r < rows; ++r) {
      // Constraint x_u <= x_v + w: relax dist(u) against dist(v) + w.
      const double cand = x[static_cast<size_t>(sys.v[r])] + w[r];
      double& xu = x[static_cast<size_t>(sys.u[r])];
      if (cand < xu - eps) {
        xu = cand;
        improved = true;
        if (cycle != nullptr) parent[static_cast<size_t>(sys.u[r])] = static_cast<int>(r);
        if (tracing) ++pass_improvements;
      }
    }
    relaxations += static_cast<long>(rows);
    if (tracing) {
      tracer.counter("graph.pass_improvements", static_cast<double>(pass_improvements), "opt");
    }
    if (!improved) {
      // Normalize so the origin sits at zero.
      const double x0 = x[0];
      for (double& v : x) v -= x0;
      return true;
    }
    if (cycle != nullptr && pass + 1 >= sys.num_nodes) {
      *cycle = parent_cycle(sys, parent);
      if (!cycle->empty()) return false;
    }
  }
  return false;  // negative cycle
}

// Schedule from the potentials of a feasible Bellman-Ford run, and the least
// L2 fixpoint under it, iterated upward from zero. Sliding *down* from the
// Bellman-Ford point (mirroring Algorithm MLP steps 3-5) needs
// O(1/|loop gain|) sweeps when Tc sits within a hair of a critical loop —
// the loop's gain is then ~0 and each sweep only sheds that much, so the
// sweep limit trips. The upward iteration's cost is bounded by path depth
// instead and reaches the same least fixpoint (found by differential
// fuzzing, seed 26). The departures are solved on the view the system was
// built from.
Expected<sta::FixpointResult> schedule_and_departures(const TimingView& view,
                                                      const DiffSystem& sys, double tc,
                                                      const std::vector<double>& x,
                                                      ClockSchedule& schedule) {
  schedule.cycle = tc;
  for (int p = 0; p < view.num_phases(); ++p) {
    const double s = x[static_cast<size_t>(sys.s_node[static_cast<size_t>(p)])];
    const double e = x[static_cast<size_t>(sys.e_node[static_cast<size_t>(p)])];
    schedule.start.push_back(s);
    schedule.width.push_back(e - s);
  }
  const std::vector<double> zeros(static_cast<size_t>(view.num_elements()), 0.0);
  sta::FixpointResult fix = sta::compute_departures(view, ShiftTable(schedule), zeros);
  if (!fix.converged) {
    return make_error(ErrorKind::kNotConverged,
                      fix.hit_sweep_limit()
                          ? "fixpoint hit the sweep budget (residual " +
                                std::to_string(fix.residual) + "; tolerance?)"
                          : "fixpoint diverged (tolerance?)");
  }
  return fix;
}

Error validation_error(const Circuit& circuit) {
  return make_error(ErrorKind::kInvalidCircuit,
                    "circuit '" + circuit.name() + "' failed validation");
}

}  // namespace

Expected<GraphSolveResult> minimize_cycle_time_graph(const Circuit& circuit,
                                                     const GraphSolveOptions& options) {
  if (!options.assume_valid && !circuit.validate().empty()) return validation_error(circuit);
  const StageTimer wall_timer;
  const obs::TraceSpan span("graph.solve", "opt");
  const TimingView view(circuit);
  const DiffSystem sys = build_system(circuit, view, options.generator);
  GraphSolveResult res;
  res.stats.view_build_seconds = view.build_seconds();
  std::vector<double> x;
  constexpr double kEps = 1e-12;  // relaxation threshold

  // Bracket the optimum: CPM is feasible when no extensions bite; otherwise
  // double until feasible.
  const StageTimer bracket_timer;
  double lo = 0.0;
  double hi = std::max(1.0, baselines::edge_triggered_cpm(circuit).cycle);
  while (!feasible_at(sys, hi, kEps, x, res.relaxations)) {
    hi *= 2.0;
    if (hi > kSearchLimit) {
      return make_error(ErrorKind::kInfeasible,
                        "no feasible cycle time below the search limit for '" +
                            circuit.name() + "'");
    }
  }
  res.stats.add_stage("bracket", bracket_timer.seconds());
  const StageTimer search_timer;
  while (hi - lo > kSearchTol) {
    const double mid = 0.5 * (lo + hi);
    ++res.search_steps;
    if (feasible_at(sys, mid, kEps, x, res.relaxations)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  // Final feasible solve at the returned Tc.
  if (!feasible_at(sys, hi, kEps, x, res.relaxations)) {
    return make_error(ErrorKind::kNotConverged, "binary search lost feasibility (tolerance?)");
  }
  res.stats.add_stage("binary-search", search_timer.seconds());

  res.min_cycle = hi;
  Expected<sta::FixpointResult> fix = schedule_and_departures(view, sys, hi, x, res.schedule);
  if (!fix) return fix.error();
  res.departure = std::move(fix->departure);
  res.stats.absorb(fix->stats);  // folds the departure fixpoint's accounting in
  res.stats.wall_seconds = wall_timer.seconds();
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("graph.solves").inc();
  reg.counter("graph.search_steps").inc(res.search_steps);
  reg.counter("graph.bf_relaxations").inc(res.relaxations);
  return res;
}

namespace {

// The exact solver; `lower_bound` replaces step 2's Howard ratio when set.
Expected<ExactSolveResult> solve_exact(const Circuit& circuit, const GraphSolveOptions& options,
                                       std::optional<double> lower_bound) {
  if (!options.assume_valid && !circuit.validate().empty()) return validation_error(circuit);
  const StageTimer wall_timer;
  const obs::TraceSpan span("graph.exact", "opt");
  const TimingView view(circuit);
  ExactSolveResult res;
  res.stats.view_build_seconds = view.build_seconds();

  // The system once, as the rows Bellman-Ford relaxes and, for Howard, as
  // edges v -> u of weight -a and transit k.
  const StageTimer system_timer;
  const DiffSystem sys = build_system(circuit, view, options.generator);
  std::vector<graph::Edge> ratio_edges;
  if (!lower_bound) {
    ratio_edges.reserve(sys.num_rows());
    for (size_t r = 0; r < sys.num_rows(); ++r) {
      ratio_edges.push_back({sys.v[r], sys.u[r], -sys.base[r], sys.tc_coeff[r]});
    }
  }
  // Every threshold is relative to the largest row constant, so delays in
  // picoseconds and in microseconds certify alike.
  double scale = 0.0;
  for (const double a : sys.base) scale = std::max(scale, std::fabs(a));
  const double eps = kRelaxRelTol * scale;
  std::vector<double> x;
  res.stats.add_stage("system", system_timer.seconds());

  // 1. A negative cycle of Tc-free rows is infeasible at every Tc.
  const StageTimer zero_transit_timer;
  const auto infeasible = [&] {
    return make_error(ErrorKind::kInfeasible,
                      "timing constraints of '" + circuit.name() +
                          "' close a negative cycle without a Tc term");
  };
  if (!feasible_at(sys.tc_free(), 0.0, eps, x, res.relaxations)) {
    return infeasible();
  }
  res.stats.add_stage("zero-transit", zero_transit_timer.seconds());

  // 2. The maximum cycle ratio over edges v -> u of weight -a, transit k.
  const StageTimer ratio_timer;
  const auto ratio_of = [&](const std::vector<int>& cycle, double& transit) {
    double sum_a = 0.0;
    transit = 0.0;
    for (const int r : cycle) {
      sum_a += sys.base[static_cast<size_t>(r)];
      transit += sys.tc_coeff[static_cast<size_t>(r)];
    }
    return transit > 0.0 ? (0.0 - sum_a) / transit : 0.0;  // 0 - x: never -0.0
  };
  double transit = 0.0;
  std::vector<int> critical;
  double tc = 0.0;
  if (lower_bound) {
    tc = *lower_bound;
  } else {
    if (const auto howard =
            graph::max_cycle_ratio_howard(sys.num_nodes, ratio_edges, kHowardRelTol * scale)) {
      critical = howard->cycle_edges;
    }
    tc = ratio_of(critical, transit);
    if (transit <= 0.0) critical.clear();  // no cycle bounds Tc: Tc* = 0
  }
  res.stats.add_stage("cycle-ratio", ratio_timer.seconds());

  // 3. Certify: no negative cycle at Tc. A negative cycle found instead has
  //    a larger ratio (a Newton step); float noise can hand back a cycle
  //    whose ratio does not exceed Tc, and then Tc rises by one ulp.
  const StageTimer certify_timer;
  std::vector<int> cycle;
  while (!feasible_at(sys, tc, eps, x, res.relaxations, &cycle)) {
    if (cycle.empty() || res.newton_steps + res.ulp_raises >= kMaxCertifyRounds) {
      return make_error(ErrorKind::kNotConverged,
                        "cycle-ratio certification of '" + circuit.name() +
                            "' did not settle in " + std::to_string(kMaxCertifyRounds) +
                            " rounds");
    }
    const double ratio = ratio_of(cycle, transit);
    if (transit <= 0.0) return infeasible();
    if (ratio > tc) {
      tc = ratio;
      critical = cycle;
      ++res.newton_steps;
    } else {
      tc = std::nextafter(tc, std::numeric_limits<double>::infinity());
      ++res.ulp_raises;
    }
  }
  res.stats.add_stage("certify", certify_timer.seconds());

  // 4-5. The certified potentials are the schedule; departures climb from 0.
  res.min_cycle = tc;
  Expected<sta::FixpointResult> fix = schedule_and_departures(view, sys, tc, x, res.schedule);
  if (!fix) return fix.error();
  res.departure = std::move(fix->departure);
  for (const int id : critical) {
    const size_t r = static_cast<size_t>(id);
    // + 0.0 turns the -0.0 of a negated zero margin into 0.
    res.critical_cycle.push_back(
        {row_name(circuit, sys.tag[r]), sys.base[r] + 0.0, static_cast<int>(sys.tc_coeff[r])});
  }
  res.stats.absorb(fix->stats);
  res.stats.wall_seconds = wall_timer.seconds();
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("graph.exact_solves").inc();
  reg.counter("graph.newton_steps").inc(res.newton_steps);
  reg.counter("graph.ulp_raises").inc(res.ulp_raises);
  return res;
}

}  // namespace

Expected<ExactSolveResult> minimize_cycle_time_exact(const Circuit& circuit,
                                                     const GraphSolveOptions& options) {
  return solve_exact(circuit, options, std::nullopt);
}

Expected<ExactSolveResult> minimize_cycle_time_from(const Circuit& circuit, double lower_bound,
                                                    const GraphSolveOptions& options) {
  return solve_exact(circuit, options, lower_bound);
}

}  // namespace mintc::opt
