#include "opt/constraints.h"

#include <algorithm>
#include <cassert>

namespace mintc::opt {

namespace {

std::string phi(int p) { return "phi" + std::to_string(p); }

}  // namespace

double nonoverlap_margin(const Circuit& circuit, const GeneratorOptions& options) {
  double worst_skew = 0.0;
  for (const Element& e : circuit.elements()) worst_skew = std::max(worst_skew, e.skew);
  return options.min_phase_separation + worst_skew;
}

ConstraintCounts count_constraints(const Circuit& circuit, const GeneratorOptions& options) {
  ConstraintCounts n;
  const int k = circuit.num_phases();
  n.bounds = 1 + 2 * k + circuit.num_elements();  // Tc, s_i, T_i, D_i
  n.c1 = 2 * k;
  n.c2 = std::max(0, k - 1);
  if (options.enforce_nonoverlap) n.c3 = circuit.k_matrix().num_pairs();
  if (options.min_phase_width > 0.0) n.ext += k;
  if (options.tc_upper_bound >= 0.0) n.ext += 1;
  for (int i = 0; i < circuit.num_elements(); ++i) {
    const int fanin = static_cast<int>(circuit.fanin(i).size());
    if (circuit.element(i).is_latch()) {
      n.l1 += options.arrival_based_setup ? fanin : 1;
      n.l2r += fanin;
    } else {
      n.ff_pin += 1;
      n.ff_setup += fanin;
    }
    if (options.hold_constraints) n.hold += fanin;
  }
  return n;
}

GeneratedLp generate_lp(const Circuit& circuit, const GeneratorOptions& options) {
  GeneratedLp out;
  out.counts = count_constraints(circuit, options);
  lp::Model& m = out.model;
  VariableMap& v = out.vars;
  const int k = circuit.num_phases();
  const int l = circuit.num_elements();

  // ---- Variables. Nonnegativity (C4, L3) is carried by the lower bounds.
  v.tc = m.add_variable("Tc");
  m.set_objective(v.tc, 1.0);
  for (int p = 1; p <= k; ++p) v.s.push_back(m.add_variable("s" + std::to_string(p)));
  for (int p = 1; p <= k; ++p) v.T.push_back(m.add_variable("T" + std::to_string(p)));
  for (int i = 0; i < l; ++i) v.D.push_back(m.add_variable("D(" + circuit.element(i).name + ")"));
  const auto s_var = [&](int p) { return v.s[static_cast<size_t>(p - 1)]; };
  const auto t_var = [&](int p) { return v.T[static_cast<size_t>(p - 1)]; };
  const auto d_var = [&](int i) { return v.D[static_cast<size_t>(i)]; };

  // ---- C1 periodicity: T_i <= Tc, s_i <= Tc.
  for (int p = 1; p <= k; ++p) {
    m.add_row("C1:T" + std::to_string(p) + "<=Tc", {{t_var(p), 1.0}, {v.tc, -1.0}},
              lp::Sense::kLe, 0.0);
    m.add_row("C1:s" + std::to_string(p) + "<=Tc", {{s_var(p), 1.0}, {v.tc, -1.0}},
              lp::Sense::kLe, 0.0);
  }

  // ---- C2 phase ordering: s_i <= s_{i+1}.
  for (int p = 1; p < k; ++p) {
    m.add_row("C2:s" + std::to_string(p) + "<=s" + std::to_string(p + 1),
              {{s_var(p), 1.0}, {s_var(p + 1), -1.0}}, lp::Sense::kLe, 0.0);
  }

  // ---- C3 phase nonoverlap (eq. 6): s_i >= s_j + T_j - C_ji*Tc for K_ij=1,
  // with the optional skew/separation margin folded into the RHS.
  if (options.enforce_nonoverlap) {
    const KMatrix K = circuit.k_matrix();
    const double margin = nonoverlap_margin(circuit, options);
    for (int i = 1; i <= k; ++i) {
      for (int j = 1; j <= k; ++j) {
        if (!K.at(i, j)) continue;
        // s_i - s_j - T_j + C_ji*Tc >= margin
        m.add_row("C3:" + phi(i) + "/" + phi(j),
                  {{s_var(i), 1.0},
                   {s_var(j), -1.0},
                   {t_var(j), -1.0},
                   {v.tc, static_cast<double>(c_flag(j, i))}},
                  lp::Sense::kGe, margin);
      }
    }
  }

  // ---- Extensions: minimum phase widths.
  if (options.min_phase_width > 0.0) {
    for (int p = 1; p <= k; ++p) {
      m.add_row("EXT:minwidth:T" + std::to_string(p), {{t_var(p), 1.0}}, lp::Sense::kGe,
                options.min_phase_width);
    }
  }

  // ---- Warm-start style upper bound on Tc.
  if (options.tc_upper_bound >= 0.0) {
    m.add_row("EXT:Tc<=bound", {{v.tc, 1.0}}, lp::Sense::kLe, options.tc_upper_bound);
  }

  out.delay_row_of_path.assign(static_cast<size_t>(circuit.num_paths()), -1);

  // ---- Latch rows.
  for (int i = 0; i < l; ++i) {
    const Element& e = circuit.element(i);
    const int p = e.phase;
    if (e.is_latch()) {
      if (!options.arrival_based_setup) {
        // L1 (eq. 16): D_i + Δ_DCi (+ σ_i) <= T_pi.
        m.add_row("L1:setup(" + e.name + ")", {{d_var(i), 1.0}, {t_var(p), -1.0}},
                  lp::Sense::kLe, -(e.setup + e.skew));
      } else {
        // Eq. (10): A_i + Δ_DCi <= T_pi, one row per fanin path.
        for (const int pi : circuit.fanin(i)) {
          const CombPath& path = circuit.path(pi);
          const Element& src = circuit.element(path.from);
          const int pj = src.phase;
          // D_j + Δ_DQj + Δ_ji + s_pj - s_pi - C_{pj,pi}*Tc + Δ_DCi <= T_pi
          m.add_row("L1A:setup(" + e.name + "<-" + src.name + ")",
                    {{d_var(path.from), 1.0},
                     {s_var(pj), 1.0},
                     {s_var(p), -1.0},
                     {v.tc, -static_cast<double>(c_flag(pj, p))},
                     {t_var(p), -1.0}},
                    lp::Sense::kLe,
                    -(src.dq + path.delay + e.setup + e.skew));
        }
      }
    } else {
      // Flip-flop: departure pinned to the leading edge of its phase.
      m.add_row("FF:pin(" + e.name + ")", {{d_var(i), 1.0}}, lp::Sense::kEq, 0.0);
      // Setup against the leading edge: A_i <= -Δ_DCi, one row per fanin.
      for (const int pi : circuit.fanin(i)) {
        const CombPath& path = circuit.path(pi);
        const Element& src = circuit.element(path.from);
        const int pj = src.phase;
        // D_j + Δ_DQj + Δ_ji + s_pj - s_pi - C_{pj,pi}*Tc <= -Δ_DCi - skew
        const int row = m.add_row(
            "FF:setup(" + e.name + "<-" + src.name + ")",
            {{d_var(path.from), 1.0},
             {s_var(pj), 1.0},
             {s_var(p), -1.0},
             {v.tc, -static_cast<double>(c_flag(pj, p))}},
            lp::Sense::kLe, -(src.dq + path.delay + e.setup + e.skew));
        out.delay_row_of_path[static_cast<size_t>(pi)] = row;
      }
    }
  }

  // ---- L2R relaxed propagation (eq. 19), one row per combinational path:
  //   D_i >= D_j + Δ_DQj + Δ_ji + S_{pj,pi}
  //   D_i - D_j - s_pj + s_pi + C_{pj,pi}*Tc >= Δ_DQj + Δ_ji.
  for (int pi = 0; pi < circuit.num_paths(); ++pi) {
    const CombPath& path = circuit.path(pi);
    const Element& src = circuit.element(path.from);
    const Element& dst = circuit.element(path.to);
    if (!dst.is_latch()) continue;  // FF departures are pinned, not propagated
    const int pj = src.phase;
    const int p = dst.phase;
    const int row = m.add_row("L2R:" + src.name + "->" + dst.name,
                              {{d_var(path.to), 1.0},
                               {d_var(path.from), -1.0},
                               {s_var(pj), -1.0},
                               {s_var(p), 1.0},
                               {v.tc, static_cast<double>(c_flag(pj, p))}},
                              lp::Sense::kGe, src.dq + path.delay);
    out.delay_row_of_path[static_cast<size_t>(pi)] = row;
  }

  // ---- Conservative hold rows (short-path extension). Earliest departure
  // from the source is assumed to be its phase's leading edge (d_j = 0).
  // Rows are emitted even for hold = 0: the requirement that the next token
  // not reach a still-open latch is the transparency-race guard itself.
  if (options.hold_constraints) {
    for (int i = 0; i < l; ++i) {
      const Element& e = circuit.element(i);
      const int p = e.phase;
      for (const int pi : circuit.fanin(i)) {
        const CombPath& path = circuit.path(pi);
        const Element& src = circuit.element(path.from);
        const int pj = src.phase;
        const double c = static_cast<double>(c_flag(pj, p));
        // The capture edge may arrive up to σ_i late, so the hold margin is
        // Δ_Hi + σ_i.
        if (e.is_latch()) {
          // Tc + δ_DQj + δ_ji + S_{pj,pi} >= T_pi + Δ_Hi + σ_i
          // (1-C)*Tc + s_pj - s_pi - T_pi >= Δ_Hi + σ_i - δ_DQj - δ_ji
          m.add_row("HOLD:" + e.name + "<-" + src.name,
                    {{v.tc, 1.0 - c}, {s_var(pj), 1.0}, {s_var(p), -1.0}, {t_var(p), -1.0}},
                    lp::Sense::kGe, e.hold + e.skew - src.min_dq() - path.min_delay);
        } else {
          // Flip-flop holds against the leading edge: (1-C)*Tc + s_pj - s_pi
          // >= Δ_Hi + σ_i - δ_DQj - δ_ji.
          m.add_row("HOLD:" + e.name + "<-" + src.name,
                    {{v.tc, 1.0 - c}, {s_var(pj), 1.0}, {s_var(p), -1.0}}, lp::Sense::kGe,
                    e.hold + e.skew - src.min_dq() - path.min_delay);
        }
      }
    }
  }

  return out;
}

ClockSchedule schedule_from_solution(const VariableMap& vars, const std::vector<double>& x) {
  ClockSchedule sch;
  sch.cycle = x.at(static_cast<size_t>(vars.tc));
  for (const int sv : vars.s) sch.start.push_back(x.at(static_cast<size_t>(sv)));
  for (const int tv : vars.T) sch.width.push_back(x.at(static_cast<size_t>(tv)));
  return sch;
}

std::vector<double> departures_from_solution(const VariableMap& vars,
                                             const std::vector<double>& x) {
  std::vector<double> d;
  d.reserve(vars.D.size());
  for (const int dv : vars.D) d.push_back(x.at(static_cast<size_t>(dv)));
  return d;
}

}  // namespace mintc::opt
