#include "sta/provenance.h"

#include <cmath>
#include <sstream>
#include <vector>

#include "base/strings.h"
#include "base/table.h"

namespace mintc::sta {

namespace {

std::string path_label(const Circuit& circuit, int p) {
  const CombPath& path = circuit.path(p);
  if (!path.label.empty()) return path.label;
  return circuit.element(path.from).name + "->" + circuit.element(path.to).name;
}

std::string phase_name(int phase) { return "phi" + std::to_string(phase); }

}  // namespace

ProvenanceReport constraint_provenance(const Circuit& circuit, const TimingView& view,
                                       const ClockSchedule& schedule, const ShiftTable& shifts,
                                       const std::vector<double>& departure, double eps) {
  ProvenanceReport rep;
  const int l = circuit.num_elements();
  if (static_cast<int>(departure.size()) != l) return rep;
  rep.origins.resize(static_cast<size_t>(l));
  rep.path_slack.resize(static_cast<size_t>(circuit.num_paths()));

  // Pass 1: every path's slack; per latch, the arg-max edge of eq. (17) and
  // the tight L1/L2/L3 records.
  for (int i = 0; i < l; ++i) {
    const double d = departure[static_cast<size_t>(i)];
    DepartureOrigin& origin = rep.origins[static_cast<size_t>(i)];
    origin.element = i;
    // A flip-flop's departure is pinned to 0 and it has no L2 row: its
    // paths' slack is against the setup deadline at its leading edge.
    const bool latch = view.is_latch(i);
    const double bound = latch ? d : -view.setup_margin(i);
    const EdgeIndex end = view.fanin_end(i);
    for (EdgeIndex e = view.fanin_begin(i); e < end; ++e) {
      const double term = departure[static_cast<size_t>(view.edge_src(e))] +
                          view.edge_max_const(e) + shifts.at(view.edge_shift(e));
      const double slack = bound - term;
      rep.path_slack[static_cast<size_t>(view.edge_path(e))] = slack;
      if (!latch || !(std::fabs(slack) <= eps)) continue;
      // The winning term: the largest one that reaches D_i (within eps).
      if (term > origin.term) {
        origin.term = term;
        origin.via_path = view.edge_path(e);
        origin.from = view.edge_src(e);
      }
      rep.tight.push_back({"L2",
                           "L2[" + circuit.element(view.edge_src(e)).name + "->" +
                               circuit.element(i).name + " via " +
                               path_label(circuit, view.edge_path(e)) + "]",
                           slack});
    }
    if (!latch) continue;
    if (std::fabs(d) <= eps) {
      // The 0-clamp dominates (or ties): the latch departs at its leading
      // edge, so L3 is tight and the chain ends here.
      rep.tight.push_back({"L3", "L3[" + circuit.element(i).name + "]", d});
      if (origin.via_path >= 0 && origin.term <= eps) {
        origin.via_path = -1;
        origin.from = -1;
        origin.term = 0.0;
      }
    }
    const double l1_slack = schedule.T(view.phase(i)) - view.setup_margin(i) - d;
    if (std::fabs(l1_slack) <= eps) {
      rep.tight.push_back({"L1", "L1[" + circuit.element(i).name + "]", l1_slack});
    }
  }

  // Pass 2: tight clock constraints, mirroring check_clock_constraints.
  const int k = schedule.num_phases();
  const KMatrix K = circuit.k_matrix();
  for (int p = 1; p <= k; ++p) {
    if (std::fabs(schedule.s(p)) <= eps) {
      rep.tight.push_back({"C4", "C4[s(" + phase_name(p) + ")=0]", schedule.s(p)});
    }
    if (std::fabs(schedule.T(p)) <= eps) {
      rep.tight.push_back({"C4", "C4[T(" + phase_name(p) + ")=0]", schedule.T(p)});
    }
    if (std::fabs(schedule.cycle - schedule.T(p)) <= eps) {
      rep.tight.push_back(
          {"C1", "C1[T(" + phase_name(p) + ")=Tc]", schedule.cycle - schedule.T(p)});
    }
    if (std::fabs(schedule.cycle - schedule.s(p)) <= eps) {
      rep.tight.push_back(
          {"C1", "C1[s(" + phase_name(p) + ")=Tc]", schedule.cycle - schedule.s(p)});
    }
  }
  for (int p = 1; p < k; ++p) {
    const double slack = schedule.s(p + 1) - schedule.s(p);
    if (std::fabs(slack) <= eps) {
      rep.tight.push_back(
          {"C2", "C2[s(" + phase_name(p) + ")=s(" + phase_name(p + 1) + ")]", slack});
    }
  }
  for (int i = 1; i <= k; ++i) {
    for (int j = 1; j <= k; ++j) {
      if (!K.at(i, j)) continue;
      // C3 (eq. 6): s_i >= s_j + T_j - C_ji*Tc.
      const double slack =
          schedule.s(i) - (schedule.s(j) + schedule.T(j) - c_flag(j, i) * schedule.cycle);
      if (std::fabs(slack) <= eps) {
        rep.tight.push_back(
            {"C3", "C3[" + phase_name(j) + " nonoverlap " + phase_name(i) + "]", slack});
      }
    }
  }

  // Pass 3: critical chain from the worst-setup-slack latch backwards along
  // arg-max edges. Ties (common at an LP optimum, where several latches sit
  // at slack 0) break towards the latest-departing latch: its chain is the
  // longest combinational walk and therefore the one a designer wants named.
  int worst = -1;
  double worst_slack = 0.0;
  for (int i = 0; i < l; ++i) {
    if (!view.is_latch(i)) continue;
    const double d = departure[static_cast<size_t>(i)];
    const double slack = schedule.T(view.phase(i)) - view.setup_margin(i) - d;
    if (worst < 0 || slack < worst_slack - eps) {
      worst = i;
      worst_slack = slack;
    } else if (slack <= worst_slack + eps) {
      if (slack < worst_slack) worst_slack = slack;
      if (d > departure[static_cast<size_t>(worst)]) worst = i;
    }
  }
  if (worst >= 0) {
    std::vector<char> on_chain(static_cast<size_t>(l), 0);
    int cur = worst;
    while (cur >= 0 && !on_chain[static_cast<size_t>(cur)]) {
      on_chain[static_cast<size_t>(cur)] = 1;
      rep.critical_chain.push_back(cur);
      const DepartureOrigin& origin = rep.origins[static_cast<size_t>(cur)];
      if (origin.via_path < 0) break;  // 0-clamped: the chain's source
      rep.critical_paths.push_back(origin.via_path);
      cur = origin.from;
    }
    // A revisit means the arg-max edges close a critical loop.
    rep.chain_is_loop = cur >= 0 && on_chain[static_cast<size_t>(cur)] &&
                        !rep.critical_paths.empty() &&
                        rep.critical_paths.size() == rep.critical_chain.size();
  }
  return rep;
}

std::string ProvenanceReport::chain_to_string(const Circuit& circuit) const {
  std::ostringstream out;
  for (size_t i = 0; i < critical_chain.size(); ++i) {
    const Element& e = circuit.element(critical_chain[i]);
    if (i > 0) out << " <- ";
    out << e.name << "(" << phase_name(e.phase) << ")";
    if (i < critical_paths.size()) out << " <- " << path_label(circuit, critical_paths[i]);
  }
  if (chain_is_loop) out << " <- (loop)";
  return out.str();
}

std::string ProvenanceReport::to_string(const Circuit& circuit) const {
  std::ostringstream out;
  out << "tight constraints (" << tight.size() << "):\n";
  TextTable table({"kind", "constraint", "slack"});
  for (const TightConstraint& t : tight) {
    table.add_row({t.kind, t.name, fmt_time(t.slack)});
  }
  out << table.to_string();
  out << "critical chain: " << chain_to_string(circuit) << "\n";
  return out.str();
}

}  // namespace mintc::sta
