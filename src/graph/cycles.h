// Simple-cycle enumeration (bounded).
//
// Used for the loop inventory of latch circuits (opt/critical.h) and as an
// exact brute-force cross-check of the cycle-ratio algorithms in tests:
// for small graphs the maximum ratio over *enumerated* cycles must equal
// what Howard's policy iteration computes.
#pragma once

#include <vector>

#include "graph/digraph.h"

namespace mintc::graph {

/// One simple cycle as a sequence of edge ids (head-to-tail, closing back
/// on the first edge's source).
struct SimpleCycle {
  std::vector<int> edges;
  double weight_sum = 0.0;
  double transit_sum = 0.0;

  /// weight/transit; +inf when transit is 0 and weight positive.
  double ratio() const;
};

/// Enumerate up to `max_cycles` simple cycles (Johnson-style DFS with a
/// root-vertex ordering so each cycle is reported exactly once). Returns
/// true if the enumeration was complete, false if it was truncated at the
/// limit.
bool enumerate_simple_cycles(const Digraph& g, std::vector<SimpleCycle>& out,
                             int max_cycles = 10000);

}  // namespace mintc::graph
