#include "opt/critical.h"

#include <algorithm>
#include <sstream>

#include "base/approx.h"
#include "base/strings.h"
#include "graph/cycles.h"
#include "model/timing_view.h"
#include "sta/provenance.h"

namespace mintc::opt {

std::string LoopInfo::to_string(const Circuit& circuit) const {
  std::ostringstream out;
  for (size_t i = 0; i < path_indices.size(); ++i) {
    const CombPath& p = circuit.path(path_indices[i]);
    if (i == 0) out << circuit.element(p.from).name;
    out << " -> " << circuit.element(p.to).name;
  }
  out << " (delay " << fmt_time(delay_sum) << ", spans " << cycle_span << " cycle"
      << (cycle_span == 1 ? "" : "s") << ", Tc >= " << fmt_time(implied_tc, 4) << ")";
  return out.str();
}

namespace {

LoopInfo loop_from_cycle(const graph::Digraph& g, const graph::SimpleCycle& cycle) {
  LoopInfo info;
  info.delay_sum = cycle.weight_sum;
  info.cycle_span = static_cast<int>(cycle.transit_sum + 0.5);
  info.implied_tc = info.cycle_span > 0 ? info.delay_sum / info.cycle_span : 0.0;
  for (const int e : cycle.edges) info.path_indices.push_back(g.edge(e).tag);
  return info;
}

}  // namespace

LoopReport analyze_loops(const Circuit& circuit, int max_loops) {
  LoopReport report;
  const graph::Digraph g = circuit.latch_graph();
  std::vector<graph::SimpleCycle> cycles;
  report.complete = graph::enumerate_simple_cycles(g, cycles, max_loops);
  report.loops.reserve(cycles.size());
  for (const graph::SimpleCycle& c : cycles) {
    report.loops.push_back(loop_from_cycle(g, c));
  }
  std::sort(report.loops.begin(), report.loops.end(),
            [](const LoopInfo& a, const LoopInfo& b) { return a.implied_tc > b.implied_tc; });
  return report;
}

CriticalReport find_critical_segments(const Circuit& circuit, const ClockSchedule& schedule,
                                      const std::vector<double>& departure, double eps) {
  CriticalReport report;
  const TimingView view(circuit);
  const ShiftTable shifts(schedule);

  // Path slacks at the fixpoint, as the signoff report reads them.
  report.path_slack =
      sta::constraint_provenance(circuit, view, schedule, shifts, departure, eps).path_slack;
  for (int p = 0; p < static_cast<int>(report.path_slack.size()); ++p) {
    if (approx_eq(report.path_slack[static_cast<size_t>(p)], 0.0, eps)) {
      report.tight_paths.push_back(p);
    }
  }

  // Setup-critical elements.
  for (int i = 0; i < view.num_elements(); ++i) {
    if (!view.is_latch(i)) continue;
    const double slack =
        shifts.width(view.phase(i)) - view.setup_margin(i) - departure[static_cast<size_t>(i)];
    if (approx_eq(slack, 0.0, eps)) report.setup_critical.push_back(i);
  }

  // Critical loops: cycles within the tight-path subgraph.
  graph::Digraph tight(circuit.num_elements());
  for (const int p : report.tight_paths) {
    const EdgeIndex e = view.edge_of_path(p);
    if (!view.is_latch(view.edge_dst(e))) continue;
    tight.add_edge(view.edge_src(e), view.edge_dst(e), view.edge_max_const(e),
                   static_cast<double>(view.edge_cross(e)), p);
  }
  std::vector<graph::SimpleCycle> cycles;
  graph::enumerate_simple_cycles(tight, cycles, 1000);
  for (const graph::SimpleCycle& c : cycles) {
    report.critical_loops.push_back(loop_from_cycle(tight, c));
  }
  std::sort(report.critical_loops.begin(), report.critical_loops.end(),
            [](const LoopInfo& a, const LoopInfo& b) { return a.implied_tc > b.implied_tc; });
  return report;
}

std::string CriticalReport::to_string(const Circuit& circuit) const {
  std::ostringstream out;
  out << "critical segments (tight propagation paths):\n";
  for (const int p : tight_paths) {
    const CombPath& path = circuit.path(p);
    out << "  " << circuit.element(path.from).name << " -> "
        << circuit.element(path.to).name;
    if (!path.label.empty()) out << " [" << path.label << "]";
    out << "\n";
  }
  if (tight_paths.empty()) out << "  (none)\n";
  out << "setup-critical elements:";
  for (const int i : setup_critical) out << " " << circuit.element(i).name;
  if (setup_critical.empty()) out << " (none)";
  out << "\ncritical loops:\n";
  for (const LoopInfo& loop : critical_loops) {
    out << "  " << loop.to_string(circuit) << "\n";
  }
  if (critical_loops.empty()) out << "  (none)\n";
  return out.str();
}

}  // namespace mintc::opt
