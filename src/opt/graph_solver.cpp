#include "opt/graph_solver.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "baselines/edge_triggered.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sta/fixpoint.h"

namespace mintc::opt {

namespace {

// One difference constraint x_u - x_v <= base + tc_coeff * Tc.
struct DiffEdge {
  int u = 0;
  int v = 0;
  double base = 0.0;
  double tc_coeff = 0.0;
};

// The difference system for a circuit: node 0 is the time origin; phases
// contribute start/end nodes; every element contributes an absolute-departure
// node.
struct DiffSystem {
  int num_nodes = 0;
  std::vector<DiffEdge> edges;
  std::vector<int> s_node, e_node, d_node;

  void add(int u, int v, double base, double tc_coeff = 0.0) {
    edges.push_back({u, v, base, tc_coeff});
  }
};

DiffSystem build_system(const Circuit& circuit, const TimingView& view,
                        const GeneratorOptions& opt) {
  DiffSystem sys;
  const int k = circuit.num_phases();
  const int l = circuit.num_elements();
  sys.num_nodes = 1 + 2 * k + l;
  for (int p = 0; p < k; ++p) {
    sys.s_node.push_back(1 + p);
    sys.e_node.push_back(1 + k + p);
  }
  for (int i = 0; i < l; ++i) sys.d_node.push_back(1 + 2 * k + i);
  const auto s_of = [&](int phase) { return sys.s_node[static_cast<size_t>(phase - 1)]; };
  const auto e_of = [&](int phase) { return sys.e_node[static_cast<size_t>(phase - 1)]; };

  // C1 + C4: 0 <= s_i <= Tc, 0 <= T_i <= Tc (as e_i - s_i).
  for (int p = 1; p <= k; ++p) {
    sys.add(s_of(p), 0, 0.0, 1.0);   // s - x0 <= Tc
    sys.add(0, s_of(p), 0.0);        // x0 - s <= 0
    sys.add(e_of(p), s_of(p), 0.0, 1.0);  // T <= Tc
    sys.add(s_of(p), e_of(p), 0.0);       // T >= 0
    if (opt.min_phase_width > 0.0) {
      sys.add(s_of(p), e_of(p), -opt.min_phase_width);  // T >= width
    }
  }
  // C2 ordering.
  for (int p = 1; p < k; ++p) sys.add(s_of(p), s_of(p + 1), 0.0);
  // C3 nonoverlap. Mirrors generate_lp: the margin charges the worst
  // effective skew (max over per-latch σ_i, floored by the global option).
  if (opt.enforce_nonoverlap) {
    const KMatrix K = circuit.k_matrix();
    const double margin =
        opt.min_phase_separation + std::max(view.max_skew(), opt.clock_skew);
    for (int i = 1; i <= k; ++i) {
      for (int j = 1; j <= k; ++j) {
        if (!K.at(i, j)) continue;
        // e_j - s_i <= C_ji*Tc - margin
        sys.add(e_of(j), s_of(i), -margin, static_cast<double>(c_flag(j, i)));
      }
    }
  }

  for (int i = 0; i < l; ++i) {
    const int p = view.phase(i);
    // Per-element capture margins, floored by the legacy global option
    // (same effective-skew rule as generate_lp's eff_skew).
    const double setup_skew = view.setup(i) + std::max(view.skew(i), opt.clock_skew);
    const double hold_skew = view.hold(i) + std::max(view.skew(i), opt.clock_skew);
    const int dn = sys.d_node[static_cast<size_t>(i)];
    const EdgeIndex fi_end = view.fanin_end(i);
    // L3: D >= 0  ->  s_p - dh <= 0.
    sys.add(s_of(p), dn, 0.0);
    if (view.is_latch(i)) {
      if (!opt.arrival_based_setup) {
        // L1: dh - e_p <= -setup - skew.
        sys.add(dn, e_of(p), -setup_skew);
      } else {
        for (EdgeIndex fe = view.fanin_begin(i); fe < fi_end; ++fe) {
          // A_i + setup <= T_p: dh_j - e_p <= C*Tc - dq - delta - setup.
          sys.add(sys.d_node[static_cast<size_t>(view.edge_src(fe))], e_of(p),
                  -(view.edge_max_const(fe) + setup_skew),
                  static_cast<double>(view.edge_cross(fe)));
        }
      }
    } else {
      // Flip-flop pin: dh == s_p.
      sys.add(dn, s_of(p), 0.0);
      sys.add(s_of(p), dn, 0.0);
      // FF setup: dh_j - s_p <= C*Tc - dq - delta - setup.
      for (EdgeIndex fe = view.fanin_begin(i); fe < fi_end; ++fe) {
        sys.add(sys.d_node[static_cast<size_t>(view.edge_src(fe))], s_of(p),
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
          sys.add(e_of(p), s_of(src_phase), rhs_base, 1.0 - c);
        } else {
          sys.add(s_of(p), s_of(src_phase), rhs_base, 1.0 - c);
        }
      }
    }
  }

  // L2R propagation: dh_j - dh_i <= C*Tc - dq_j - delta_ji.
  for (int pi = 0; pi < circuit.num_paths(); ++pi) {
    const EdgeIndex fe = view.edge_of_path(pi);
    if (!view.is_latch(view.edge_dst(fe))) continue;
    sys.add(sys.d_node[static_cast<size_t>(view.edge_src(fe))],
            sys.d_node[static_cast<size_t>(view.edge_dst(fe))], -view.edge_max_const(fe),
            static_cast<double>(view.edge_cross(fe)));
  }
  return sys;
}

// Bellman-Ford feasibility of the difference system at a concrete Tc.
// On success fills `x` with a feasible assignment (x[0] == 0).
bool feasible_at(const DiffSystem& sys, double tc, std::vector<double>& x,
                 long& relaxations) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool tracing = tracer.enabled();
  const obs::TraceSpan span("graph.bellman-ford", "opt");
  x.assign(static_cast<size_t>(sys.num_nodes), 0.0);  // virtual source to all
  for (int pass = 0; pass < sys.num_nodes; ++pass) {
    bool improved = false;
    long pass_improvements = 0;  // relaxation-round record, kept when tracing
    for (const DiffEdge& e : sys.edges) {
      // Constraint x_u <= x_v + w: relax dist(u) against dist(v) + w.
      const double w = e.base + e.tc_coeff * tc;
      const double cand = x[static_cast<size_t>(e.v)] + w;
      ++relaxations;
      if (cand < x[static_cast<size_t>(e.u)] - 1e-12) {
        x[static_cast<size_t>(e.u)] = cand;
        improved = true;
        if (tracing) ++pass_improvements;
      }
    }
    if (tracing) {
      tracer.counter("graph.pass_improvements", static_cast<double>(pass_improvements), "opt");
    }
    if (!improved) {
      // Normalize so the origin sits at zero.
      const double x0 = x[0];
      for (double& v : x) v -= x0;
      return true;
    }
  }
  return false;  // negative cycle
}

}  // namespace

Expected<GraphSolveResult> minimize_cycle_time_graph(const Circuit& circuit,
                                                     const GraphSolveOptions& options) {
  if (!options.assume_valid) {
    const std::vector<std::string> problems = circuit.validate();
    if (!problems.empty()) {
      return make_error(ErrorKind::kInvalidCircuit,
                        "circuit '" + circuit.name() + "' failed validation");
    }
  }
  const StageTimer wall_timer;
  const obs::TraceSpan span("graph.solve", "opt");
  const TimingView view(circuit);
  const DiffSystem sys = build_system(circuit, view, options.generator);
  GraphSolveResult res;
  res.stats.view_build_seconds = view.build_seconds();
  std::vector<double> x;

  // Bracket the optimum. Warm path: a tc_hint from a previous solve of a
  // perturbed circuit starts the bracket at [0.95, 1.05] x hint. Cold path:
  // CPM is feasible when no extensions bite; otherwise double until
  // feasible.
  const StageTimer bracket_timer;
  double lo = 0.0;
  const bool warm = options.tc_hint > 0.0;
  double hi = warm ? options.tc_hint * 1.05
                   : std::max(1.0, baselines::edge_triggered_cpm(circuit).cycle);
  while (!feasible_at(sys, hi, x, res.relaxations)) {
    hi *= 2.0;
    if (hi > options.hi_limit) {
      return make_error(ErrorKind::kInfeasible,
                        "no feasible cycle time below the search limit for '" +
                            circuit.name() + "'");
    }
  }
  if (warm) {
    // Probe just below the hint: if infeasible there, the bracket shrinks to
    // ~10% of the hint; otherwise the optimum dropped past it and the search
    // falls back to [0, hi].
    const double probe = options.tc_hint * 0.95;
    if (probe < hi && !feasible_at(sys, probe, x, res.relaxations)) lo = probe;
    obs::MetricsRegistry::instance().counter("graph.warm_brackets").inc();
  }
  res.stats.add_stage("bracket", bracket_timer.seconds());
  const StageTimer search_timer;
  while (hi - lo > options.tol) {
    const double mid = 0.5 * (lo + hi);
    ++res.search_steps;
    if (feasible_at(sys, mid, x, res.relaxations)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  // Final feasible solve at the returned Tc.
  if (!feasible_at(sys, hi, x, res.relaxations)) {
    return make_error(ErrorKind::kNotConverged, "binary search lost feasibility (tolerance?)");
  }
  res.stats.add_stage("binary-search", search_timer.seconds());

  res.min_cycle = hi;
  res.schedule.cycle = hi;
  const int k = circuit.num_phases();
  for (int p = 0; p < k; ++p) {
    const double s = x[static_cast<size_t>(sys.s_node[static_cast<size_t>(p)])];
    const double e = x[static_cast<size_t>(sys.e_node[static_cast<size_t>(p)])];
    res.schedule.start.push_back(s);
    res.schedule.width.push_back(e - s);
  }
  // Departures: the least L2 fixpoint under the schedule, iterated from
  // below. Sliding *down* from the Bellman-Ford point (mirroring Algorithm
  // MLP steps 3-5) needs O(1/|loop gain|) sweeps when the binary search
  // lands within `tol` of a critical loop — the loop's gain is then ~-tol
  // and each sweep only sheds that much, so the sweep limit trips. The
  // upward iteration's cost is bounded by path depth instead and reaches
  // the same least fixpoint (found by differential fuzzing, seed 26).
  const sta::FixpointResult fix = sta::compute_departures(
      circuit, res.schedule,
      std::vector<double>(static_cast<size_t>(circuit.num_elements()), 0.0));
  if (!fix.converged) {
    return make_error(ErrorKind::kNotConverged,
                      fix.hit_sweep_limit()
                          ? "fixpoint hit the sweep budget (residual " +
                                std::to_string(fix.residual) + "; tolerance?)"
                          : "fixpoint diverged (tolerance?)");
  }
  res.departure = fix.departure;
  res.stats.absorb(fix.stats);  // folds the departure fixpoint's accounting in
  res.stats.wall_seconds = wall_timer.seconds();
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("graph.solves").inc();
  reg.counter("graph.search_steps").inc(res.search_steps);
  reg.counter("graph.bf_relaxations").inc(res.relaxations);
  return res;
}

}  // namespace mintc::opt
