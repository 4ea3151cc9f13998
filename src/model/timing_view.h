// The flattened timing kernel layer shared by every engine.
//
// Every engine that evaluates the SMO propagation term (eq. 17)
//
//     D_j + Δ_DQ(j) + Δ_ji + S_{pj,pi}
//
// used to re-derive it by chasing Circuit::fanin(i) -> path(pi) ->
// element(path.from) through nested vectors and recomputing
// ClockSchedule::shift per edge per sweep. TimingView replaces those six
// hand-rolled copies of the inner loop with one immutable, index-flattened
// representation built once per Circuit:
//
//   * CSR fan-in / fan-out arrays (contiguous, cache-friendly);
//   * per-edge precomputed constants Δ_DQ(from) + Δ_ij (and the min-delay
//     analogue min_DQ(from) + δ_ij for the hold/short-path direction);
//   * per-edge flattened (p_from, p_to) phase-pair indices and C flags.
//
// A ShiftTable is the per-ClockSchedule companion: the k×k matrix of
// S_ij values built once, so the inner-loop term becomes two array loads
// and two adds with zero pointer chasing:
//
//     d[edge_src(e)] + edge_max_const(e) + shifts.at(edge_shift(e))
//
// Invalidation rules: a TimingView tracks one Circuit's *parameters*, not
// its structure. Parameter edits (a path delay, a latch Δ_DQ/setup/hold)
// go through the in-place mutation API below, which patches the fused
// per-edge constants and records the touched edges in a dirty set — so an
// incremental engine (sta::AnalysisSession) can warm-start the eq. 17
// fixpoint from its previous answer instead of re-flattening and
// cold-starting. Mutating the Circuit *behind the view's
// back*, or structurally (add/remove paths or elements), still invalidates
// it — rebuild. A ShiftTable is the per-ClockSchedule companion; update()
// re-derives it in place from a new schedule and reports which phases (and
// whether any S_ij decreased) changed. Cold builds are O(l + E) and O(k^2)
// respectively, negligible next to a single fixpoint sweep.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "model/circuit.h"
#include "obs/stats.h"

namespace mintc {

/// Edge ids and CSR offsets are 64-bit. A 10^6-latch mesh with heavy fan-in
/// can push the total fan-in slot count past 2^31, and the old `int` offsets
/// silently wrapped there (UB on the accumulating counter, garbage CSR
/// afterwards). Node ids stay `int` — element counts are bounded far below
/// edge counts — and per-edge payload arrays keep 32-bit node entries so the
/// SIMD kernels can gather with compact indices.
using EdgeIndex = std::int64_t;
// EngineStats and StageTimer moved to obs/stats.h (the observability layer
// is now the single accounting path); included above so existing users of
// this header keep compiling unchanged.

/// How one ShiftTable::update differed from the table it replaced; the
/// session layer uses this to decide whether a schedule swap preserves the
/// warm-start precondition (every effective edge weight nondecreasing).
struct ShiftDelta {
  bool changed = false;               // any entry (shift/start/width) moved
  bool same_shape = false;            // same phase count as before
  bool shifts_nondecreasing = false;  // same_shape and no S_ij decreased
  /// Per phase (index 0 = phase 1): start, width or an incident S_ij moved.
  std::vector<char> phase_dirty;
};

/// The k×k phase-shift matrix S_ij (eq. 12) of one ClockSchedule, plus the
/// flat start/width arrays, all built once so no engine recomputes
/// s_i - s_j - C_ij*Tc (or bounds-checks a vector) per edge per sweep.
class ShiftTable {
 public:
  explicit ShiftTable(const ClockSchedule& schedule);

  /// Re-derive the table from `schedule` in place (reusing storage) and
  /// report what moved relative to the previous contents.
  ShiftDelta update(const ClockSchedule& schedule);

  int num_phases() const { return k_; }
  double cycle() const { return cycle_; }
  double build_seconds() const { return build_seconds_; }

  /// S_ij by flat index (see TimingView::edge_shift).
  double at(int flat) const {
    assert(flat >= 0 && flat < k_ * k_ && "flat shift index out of range");
    return shift_[static_cast<size_t>(flat)];
  }
  /// S_ij, 1-based phases. An off-by-one here (phase 0, or k+1) used to read
  /// out of bounds silently in release builds; debug builds now assert.
  double shift(int i, int j) const {
    assert(i >= 1 && i <= k_ && "phase i out of range (phases are 1-based)");
    assert(j >= 1 && j <= k_ && "phase j out of range (phases are 1-based)");
    return shift_[static_cast<size_t>((i - 1) * k_ + (j - 1))];
  }
  double start(int phase) const {
    assert(phase >= 1 && phase <= k_ && "phase out of range (phases are 1-based)");
    return start_[static_cast<size_t>(phase - 1)];
  }
  double width(int phase) const {
    assert(phase >= 1 && phase <= k_ && "phase out of range (phases are 1-based)");
    return width_[static_cast<size_t>(phase - 1)];
  }

  /// Raw S_ij matrix (k*k, row-major by 1-based source phase) for the
  /// vectorized kernels, which gather shifts by edge_shift index.
  const double* shift_data() const { return shift_.data(); }

 private:
  int k_ = 0;
  double cycle_ = 0.0;
  double build_seconds_ = 0.0;
  std::vector<double> shift_;  // (i-1)*k + (j-1) -> S_ij
  std::vector<double> start_;
  std::vector<double> width_;
};

/// Index-flattened view of a Circuit. "Edges" are the circuit's CombPaths
/// re-indexed in fan-in (destination-major) order; edge_path / edge_of_path
/// translate between the two numberings. The structure (CSR arrays, edge
/// numbering) is immutable; parameters may be edited in place through the
/// mutation API, which keeps the fused constants and the dirty sets in sync.
class TimingView {
 public:
  /// Hard edge-count ceiling. Circuit path ids are `int`, so any circuit
  /// whose path count exceeds this has already overflowed upstream; the
  /// builder rejects (asserts on) such inputs instead of constructing a
  /// wrapped CSR. All *offset arithmetic* below is EdgeIndex (64-bit), so
  /// nothing in the view itself can wrap even at the ceiling.
  static constexpr EdgeIndex kMaxEdges = std::numeric_limits<int>::max();

  /// True iff a circuit with `edge_count` comb paths can be flattened
  /// without index overflow. Exposed (rather than buried in the ctor) so the
  /// boundary is unit-testable without materializing 2^31 paths.
  static constexpr bool edge_capacity_ok(std::int64_t edge_count) {
    return edge_count >= 0 && edge_count <= kMaxEdges;
  }

  explicit TimingView(const Circuit& circuit);

  int num_elements() const { return num_elements_; }
  int num_edges() const { return num_edges_; }
  int num_phases() const { return num_phases_; }
  double build_seconds() const { return build_seconds_; }

  // -- Per-element arrays ---------------------------------------------------
  bool is_latch(int i) const { return latch_[static_cast<size_t>(i)] != 0; }
  int phase(int i) const { return phase_[static_cast<size_t>(i)]; }  // 1-based
  double setup(int i) const { return setup_[static_cast<size_t>(i)]; }
  double hold(int i) const { return hold_[static_cast<size_t>(i)]; }
  double dq(int i) const { return dq_[static_cast<size_t>(i)]; }
  double min_dq(int i) const { return min_dq_[static_cast<size_t>(i)]; }
  double skew(int i) const { return skew_[static_cast<size_t>(i)]; }
  /// Fused capture-side margins: setup(i) + skew(i) and hold(i) + skew(i).
  /// The local clock-edge uncertainty σ_i is charged where a token is
  /// *captured* (the setup/hold checks), never in the eq. 17 propagation
  /// term — departures stay skew-free, which is what keeps every fixpoint
  /// scheme bit-identical under per-latch skew (see DESIGN.md §5.9).
  double setup_margin(int i) const { return setup_margin_[static_cast<size_t>(i)]; }
  double hold_margin(int i) const { return hold_margin_[static_cast<size_t>(i)]; }

  // -- Fan-in CSR -----------------------------------------------------------
  // Edges entering element i are fanin_begin(i) .. fanin_end(i), in the same
  // (ascending path-index) order Circuit::fanin used to yield. Offsets and
  // edge ids are EdgeIndex (64-bit) end to end; see the type's comment.
  EdgeIndex fanin_begin(int i) const { return fanin_offset_[static_cast<size_t>(i)]; }
  EdgeIndex fanin_end(int i) const { return fanin_offset_[static_cast<size_t>(i) + 1]; }
  EdgeIndex fanin_count(int i) const { return fanin_end(i) - fanin_begin(i); }

  int edge_src(EdgeIndex e) const { return src_[static_cast<size_t>(e)]; }
  int edge_dst(EdgeIndex e) const { return dst_[static_cast<size_t>(e)]; }
  /// Original Circuit path index of edge e, and the inverse mapping.
  int edge_path(EdgeIndex e) const { return path_of_edge_[static_cast<size_t>(e)]; }
  EdgeIndex edge_of_path(int p) const { return edge_of_path_[static_cast<size_t>(p)]; }
  /// Δ_DQ(from) + Δ_ij — the long-path propagation constant.
  double edge_max_const(EdgeIndex e) const { return max_const_[static_cast<size_t>(e)]; }
  /// min_DQ(from) + δ_ij — the short-path (hold) analogue.
  double edge_min_const(EdgeIndex e) const { return min_const_[static_cast<size_t>(e)]; }
  /// Flat (p_from, p_to) index into ShiftTable::at.
  int edge_shift(EdgeIndex e) const { return shift_index_[static_cast<size_t>(e)]; }
  /// C_{p_from, p_to} (eq. 1): 1 if the edge crosses a cycle boundary.
  int edge_cross(EdgeIndex e) const { return cross_[static_cast<size_t>(e)]; }

  // -- Raw per-edge arrays for the vectorized kernels -----------------------
  // Contiguous, fan-in-CSR-ordered; a kernel relaxing element i reads the
  // run [fanin_begin(i), fanin_end(i)) of each. Source ids and shift indices
  // stay 32-bit so AVX2 gathers use compact index vectors.
  const int* edge_src_data() const { return src_.data(); }
  const double* edge_max_const_data() const { return max_const_.data(); }
  const int* edge_shift_data() const { return shift_index_.data(); }

  // -- Fan-out CSR ----------------------------------------------------------
  // Entries are edge ids (usable with edge_* above) leaving element i, in
  // the same order Circuit::fanout used to yield.
  EdgeIndex fanout_begin(int i) const { return fanout_offset_[static_cast<size_t>(i)]; }
  EdgeIndex fanout_end(int i) const { return fanout_offset_[static_cast<size_t>(i) + 1]; }
  EdgeIndex fanout_edge(EdgeIndex f) const { return fanout_edges_[static_cast<size_t>(f)]; }

  /// Σ Δ_ij + Σ Δ_DQ over the whole circuit — the schedule-independent part
  /// of the fixpoint divergence bound. Maintained incrementally across
  /// mutations.
  double divergence_base() const { return divergence_base_; }

  // -- In-place mutation API ------------------------------------------------
  // Each setter patches the fused per-edge constants (max_const / min_const)
  // the kernels read and records the touched edges in the dirty set. Mirror
  // the same edit into the source Circuit separately; the view never writes
  // back.
  void set_path_delay(int p, double delay);          // Δ_ij (by path index)
  void set_path_min_delay(int p, double min_delay);  // δ_ij
  void set_element_dq(int i, double dq);             // Δ_DQ (all fanout edges)
  void set_element_min_dq(int i, double min_dq);     // resolved min Δ_DQ
  void set_element_setup(int i, double setup);       // slack-only parameter
  void set_element_hold(int i, double hold);         // slack-only parameter
  void set_element_skew(int i, double skew);         // slack-only parameter (σ_i >= 0)

  /// Edges whose max_const or min_const changed since clear_dirty(),
  /// deduplicated, in first-touch order.
  const std::vector<EdgeIndex>& dirty_edges() const { return dirty_edges_; }
  /// True while every max_const change since clear_dirty() was nondecreasing
  /// — the warm-start precondition for the monotone eq. 17 iteration.
  bool max_nondecreasing() const { return max_nondecreasing_; }
  void clear_dirty();

 private:
  void mark_edge_dirty(EdgeIndex e);
  int num_elements_ = 0;
  int num_edges_ = 0;
  int num_phases_ = 0;
  double build_seconds_ = 0.0;
  double divergence_base_ = 0.0;

  std::vector<char> latch_;
  std::vector<int> phase_;
  std::vector<double> setup_, hold_, dq_, min_dq_, skew_;
  std::vector<double> setup_margin_, hold_margin_;  // setup+skew / hold+skew

  std::vector<EdgeIndex> fanin_offset_;  // l + 1
  std::vector<int> src_, dst_, path_of_edge_, shift_index_;
  std::vector<EdgeIndex> edge_of_path_;
  std::vector<int> cross_;
  std::vector<double> max_const_, min_const_;

  std::vector<EdgeIndex> fanout_offset_;  // l + 1
  std::vector<EdgeIndex> fanout_edges_;

  // Raw per-edge path delays (Δ_ij / δ_ij), kept so element-level edits can
  // re-fuse max_const/min_const without consulting the Circuit.
  std::vector<double> path_delay_, path_min_delay_;

  // Mutation tracking.
  std::vector<EdgeIndex> dirty_edges_;
  std::vector<char> edge_dirty_;
  bool max_nondecreasing_ = true;
};

/// Evaluate the right-hand side of eq. (17) for element `i`:
/// max(0, max over fan-in edges of D_src + (Δ_DQ + Δ) + S). Returns 0 for
/// flip-flops and latches without fan-in. This IS the pre-refactor
/// sta::departure_update inner loop, minus the pointer chasing.
inline double departure_update(const TimingView& view, const ShiftTable& shifts,
                               const std::vector<double>& departure, int i) {
  if (!view.is_latch(i)) return 0.0;
  double best = 0.0;
  const EdgeIndex end = view.fanin_end(i);
  for (EdgeIndex e = view.fanin_begin(i); e < end; ++e) {
    const double a = departure[static_cast<size_t>(view.edge_src(e))] +
                     view.edge_max_const(e) + shifts.at(view.edge_shift(e));
    if (a > best) best = a;
  }
  return best;
}

/// The earliest-departure (min-fixpoint) analogue over min delays, used by
/// the hold/short-path check: max(0, min over fan-in of
/// d_src + (min_DQ + δ) + S); 0 for flip-flops and latches without fan-in
/// (they depart at the leading edge).
double early_departure_update(const TimingView& view, const ShiftTable& shifts,
                              const std::vector<double>& departure, int i);

/// Latest arrival A_i (eq. 14) at element `i` given fixed departures;
/// -infinity when i has no fan-in (the paper's Δ == -inf convention).
double arrival_update(const TimingView& view, const ShiftTable& shifts,
                      const std::vector<double>& departure, int i);

}  // namespace mintc
