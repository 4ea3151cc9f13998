#include "netlist/extract.h"

#include <limits>
#include <sstream>

#include "graph/digraph.h"
#include "graph/topo.h"

namespace mintc::netlist {

Expected<Circuit> extract_timing_model(const Netlist& netlist, const DelayModel& model) {
  const std::vector<std::string> problems = netlist.validate();
  if (!problems.empty()) {
    std::ostringstream msg;
    msg << "netlist '" << netlist.name() << "' failed validation:";
    for (const std::string& p : problems) msg << "\n  " << p;
    return make_error(ErrorKind::kInvalidCircuit, msg.str());
  }

  // Net-level combinational graph: one node per net, one edge per gate input
  // -> gate output carrying the gate's delay. Storage cells do NOT connect
  // their D to their Q, so they break all sequential feedback.
  graph::Digraph g(netlist.num_nets());
  for (const Gate& gate : netlist.gates()) {
    const double d = model.gate_delay(gate.type, netlist.fanout_count(gate.output));
    for (const int in : gate.inputs) g.add_edge(in, gate.output, d);
  }
  if (!graph::topological_order(g)) {
    return make_error(ErrorKind::kInvalidCircuit,
                      "netlist '" + netlist.name() +
                          "' has combinational feedback (a gate loop not broken by storage)");
  }

  Circuit circuit(netlist.name(), netlist.num_phases());
  for (const Storage& s : netlist.storages()) {
    // A circuit names each element once (its .lct text could not be read
    // back otherwise).
    if (circuit.find_element(s.name)) {
      return make_error(ErrorKind::kInvalidCircuit,
                        "netlist '" + netlist.name() + "' has two storage cells named '" +
                            s.name + "'");
    }
    Element e;
    e.name = s.name;
    e.kind = s.kind;
    e.phase = s.phase;
    e.setup = s.setup;
    e.dq = s.dq;
    e.hold = s.hold;
    e.dq_min = s.dq_min;
    e.skew = s.skew;
    circuit.add_element(std::move(e));
  }

  // From each storage's Q net, a forward topological DP computes both the
  // longest (worst-case) and shortest (best-case) arrival at every net.
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto order = graph::topological_order(g);

  for (int j = 0; j < static_cast<int>(netlist.storages().size()); ++j) {
    const Storage& src = netlist.storages()[static_cast<size_t>(j)];
    std::vector<double> longest(static_cast<size_t>(netlist.num_nets()), kNegInf);
    std::vector<double> shortest(static_cast<size_t>(netlist.num_nets()), kInf);
    longest[static_cast<size_t>(src.q_net)] = 0.0;
    shortest[static_cast<size_t>(src.q_net)] = 0.0;
    for (const int n : *order) {
      if (longest[static_cast<size_t>(n)] == kNegInf) continue;
      for (const int e : g.out_edges(n)) {
        const graph::Edge& edge = g.edge(e);
        const size_t to = static_cast<size_t>(edge.to);
        longest[to] = std::max(longest[to], longest[static_cast<size_t>(n)] + edge.weight);
        shortest[to] = std::min(shortest[to], shortest[static_cast<size_t>(n)] +
                                                  edge.weight * model.min_scale);
      }
    }
    for (int i = 0; i < static_cast<int>(netlist.storages().size()); ++i) {
      const Storage& dst = netlist.storages()[static_cast<size_t>(i)];
      const double max_d = longest[static_cast<size_t>(dst.d_net)];
      if (max_d == kNegInf) continue;  // not connected
      const double min_d = shortest[static_cast<size_t>(dst.d_net)];
      circuit.add_path(j, i, max_d, min_d, src.name + "->" + dst.name);
    }
  }
  return circuit;
}

}  // namespace mintc::netlist
