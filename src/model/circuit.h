// The circuit timing model: synchronizing elements joined by combinational
// max/min path delays (paper Fig. 1 and Section III).
//
// A Circuit is the input to everything else in the library: the constraint
// generator (src/opt), the analysis engine (src/sta), the baselines and the
// renderers all consume this type. It is a *timing abstraction*: each
// element typically stands for a whole bus of identically-timed latches
// (the paper lumps 32-bit buses into single synchronizers), and each
// CombPath carries the worst-case (and optionally best-case) delay through
// a combinational block between two elements.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/digraph.h"
#include "model/clock.h"
#include "model/element.h"

namespace mintc {

/// A combinational path from element `from` to element `to` with worst-case
/// delay Δ_ij and best-case delay δ_ij. Pairs of elements with no connecting
/// block simply have no CombPath (the paper's Δ_ij = -inf convention).
struct CombPath {
  int from = 0;
  int to = 0;
  double delay = 0.0;      // Δ_ij (max)
  double min_delay = 0.0;  // δ_ij (min), used by the hold/short-path check
  std::string label;       // e.g. the block name ("La", "ALU", ...)
};

class Circuit {
 public:
  Circuit(std::string name, int num_phases);

  const std::string& name() const { return name_; }
  int num_phases() const { return num_phases_; }
  int num_elements() const { return static_cast<int>(elements_.size()); }
  int num_paths() const { return static_cast<int>(paths_.size()); }

  /// Add a synchronizing element; its name must be unique. Returns the
  /// element index (0-based).
  int add_element(Element element);

  /// Convenience constructors.
  int add_latch(std::string name, int phase, double setup, double dq);
  int add_flipflop(std::string name, int phase, double setup, double clk_to_q);

  /// Add a combinational path between two elements (by index or name).
  /// Returns the path index.
  int add_path(int from, int to, double delay, double min_delay = 0.0, std::string label = "");
  int add_path(const std::string& from, const std::string& to, double delay,
               double min_delay = 0.0, std::string label = "");

  /// Append `paths` in order, as add_path would one at a time, growing each
  /// fan-in and fan-out list once to its final size.
  void add_paths(std::vector<CombPath> paths);

  /// Give back the spare capacity that adding elements and paths leaves
  /// behind, so a circuit built once and then kept holds only its contents.
  void shrink_to_fit();

  const Element& element(int i) const { return elements_.at(static_cast<size_t>(i)); }
  Element& element(int i) { return elements_.at(static_cast<size_t>(i)); }
  const std::vector<Element>& elements() const { return elements_; }

  const CombPath& path(int p) const { return paths_.at(static_cast<size_t>(p)); }
  const std::vector<CombPath>& paths() const { return paths_; }

  /// Change a path's worst-case delay (used by parametric sweeps, e.g.
  /// varying Δ41 in example 1). Asserts that the new delay is finite,
  /// nonnegative and still >= the path's min delay.
  void set_path_delay(int p, double delay);

  /// Change a path's best-case delay. Asserts that the new min delay is
  /// finite, nonnegative and still <= the path's max delay.
  void set_path_min_delay(int p, double min_delay);

  /// Change a path's label (timing-neutral; used by the shrinker).
  void set_path_label(int p, std::string label);

  // -- In-place structural edits -------------------------------------------
  // Exact inverses of each other, used by the incremental-analysis session's
  // undo log and the fuzz shrinker: remove_path(p) followed by
  // insert_path(p, removed) restores the circuit bit-for-bit, including path
  // numbering and fan-in/fan-out order. Each is O(l + E).

  /// Remove path `p`; later paths shift down by one. Returns the removed
  /// path so it can be re-inserted.
  CombPath remove_path(int p);

  /// Insert `path` at index `pos` (0 <= pos <= num_paths()); paths at or
  /// after `pos` shift up by one.
  void insert_path(int pos, CombPath path);

  /// Remove element `e`, which must have no incident paths (remove them
  /// first); later elements shift down by one. Returns the removed element.
  Element remove_element(int e);

  /// Insert `element` at index `pos` (0 <= pos <= num_elements()); elements
  /// at or after `pos` shift up by one. The name must be unique.
  void insert_element(int pos, Element element);

  /// Element index by name, if present.
  std::optional<int> find_element(std::string_view name) const;

  /// Path indices entering / leaving an element.
  const std::vector<int>& fanin(int element) const;
  const std::vector<int>& fanout(int element) const;

  /// Maximum fan-in over all elements ("F" in the paper's constraint-count
  /// bound 4k + (F+1)l).
  int max_fanin() const;

  /// The K matrix (eq. 2) computed from latch-to-latch paths only; see
  /// element.h for why flip-flop endpoints are exempt from nonoverlap.
  KMatrix k_matrix() const;

  /// The latch connectivity graph: one node per element, one edge per
  /// CombPath, weight = Δ_DQ(from) + Δ_ij, transit = C_{p_from, p_to}.
  /// The maximum cycle ratio of this graph lower-bounds the optimal Tc.
  graph::Digraph latch_graph() const;

  /// Structural validation; returns human-readable problems (empty = OK).
  /// Checks: phases in range, finite and nonnegative parameters, min <= max
  /// delays, the paper's Δ_DQ >= Δ_DC assumption, and duplicate parallel
  /// paths. Runs validate_element over every element, then validate_path
  /// plus the parallel-path check over every path, in index order.
  std::vector<std::string> validate() const;

  /// The checks validate() makes on element `i` alone (phase range, finite
  /// and nonnegative parameters, Δ_DQ >= Δ_DC, min Δ_DQ <= Δ_DQ); appends
  /// to `problems`. A parameter edit can only break the items it touches,
  /// so re-checking those keeps an already-valid circuit valid in O(edits).
  void validate_element(int i, std::vector<std::string>& problems) const;

  /// The checks validate() makes on path `p` alone (finite, nonnegative,
  /// min <= max delays); appends to `problems`. The parallel-path check
  /// needs every path and stays in validate().
  void validate_path(int p, std::vector<std::string>& problems) const;

 private:
  std::string name_;
  int num_phases_;
  std::vector<Element> elements_;
  std::vector<CombPath> paths_;
  // Transparent, so find_element looks a string_view up without a copy.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  std::unordered_map<std::string, int, NameHash, std::equal_to<>> by_name_;
  std::vector<std::vector<int>> fanin_;
  std::vector<std::vector<int>> fanout_;
};

}  // namespace mintc
