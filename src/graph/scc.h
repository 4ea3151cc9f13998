// Strongly connected components (Tarjan, iterative).
//
// LEADOUT (Szymanski, Section II of the paper) partitions the circuit into
// its strongly connected components before constraint generation; we use SCCs
// to find feedback loops of latches for structural validation, to restrict
// cycle-ratio computation to nontrivial components, and to order the eq. (17)
// fixpoint engine's solve one component at a time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.h"

namespace mintc::graph {

/// Iterative Tarjan over any adjacency: node v's successors are
/// `successor(v, k)` for k in the half-open range `edges(v)`. Fills
/// `component` with each node's component index in Tarjan's emission order
/// — reverse topological, sinks first — and returns the number of
/// components. The Digraph overload below and the fixpoint engine's SCC plan
/// (sta::SccPlan in sta/fixpoint.h, which walks the TimingView's fan-out
/// CSR) both run it.
template <class Edges, class Successor>
int tarjan_components(int n, Edges&& edges, Successor&& successor,
                      std::vector<int>& component) {
  const auto at = [](int v) { return static_cast<size_t>(v); };
  component.assign(at(n), -1);
  std::vector<int> index(at(n), -1);
  std::vector<int> lowlink(at(n), 0);
  std::vector<int> stack;
  struct Frame {
    int node;
    std::int64_t next;  // next successor to explore
    std::int64_t end;
  };
  std::vector<Frame> frames;
  stack.reserve(at(n));
  frames.reserve(at(n));
  int next_index = 0;
  int emitted = 0;
  const auto visit = [&](int v) {
    index[at(v)] = lowlink[at(v)] = next_index++;
    stack.push_back(v);
    const auto [first, last] = edges(v);
    frames.push_back({v, static_cast<std::int64_t>(first), static_cast<std::int64_t>(last)});
  };
  for (int start = 0; start < n; ++start) {
    if (index[at(start)] != -1) continue;
    visit(start);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const int v = f.node;
      if (f.next < f.end) {
        const int w = successor(v, f.next++);
        if (index[at(w)] == -1) {
          visit(w);  // may reallocate frames: f is not used past here
        } else if (component[at(w)] == -1) {  // visited, unassigned: on the stack
          lowlink[at(v)] = std::min(lowlink[at(v)], index[at(w)]);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const int parent = frames.back().node;
        lowlink[at(parent)] = std::min(lowlink[at(parent)], lowlink[at(v)]);
      }
      if (lowlink[at(v)] == index[at(v)]) {
        int w = -1;
        do {
          w = stack.back();
          stack.pop_back();
          component[at(w)] = emitted;
        } while (w != v);
        ++emitted;
      }
    }
  }
  return emitted;
}

struct SccResult {
  /// component index of every node; components are numbered in reverse
  /// topological order (Tarjan's emission order).
  std::vector<int> component;
  int num_components = 0;

  /// Nodes of each component, ascending.
  std::vector<std::vector<int>> members;

  /// True if the component has more than one node or a self-loop — i.e.,
  /// participates in at least one cycle.
  std::vector<bool> nontrivial;
};

SccResult strongly_connected_components(const Digraph& g);

/// True if the graph contains at least one directed cycle.
bool has_cycle(const Digraph& g);

}  // namespace mintc::graph
