#include "model/timing_view.h"

#include <cmath>
#include <limits>

namespace mintc {

ShiftTable::ShiftTable(const ClockSchedule& schedule) {
  const StageTimer timer;
  k_ = schedule.num_phases();
  cycle_ = schedule.cycle;
  shift_.resize(static_cast<size_t>(k_) * static_cast<size_t>(k_));
  start_.resize(static_cast<size_t>(k_));
  width_.resize(static_cast<size_t>(k_));
  for (int i = 1; i <= k_; ++i) {
    start_[static_cast<size_t>(i - 1)] = schedule.s(i);
    width_[static_cast<size_t>(i - 1)] = schedule.T(i);
    for (int j = 1; j <= k_; ++j) {
      shift_[static_cast<size_t>((i - 1) * k_ + (j - 1))] = schedule.shift(i, j);
    }
  }
  build_seconds_ = timer.seconds();
}

ShiftDelta ShiftTable::update(const ClockSchedule& schedule) {
  ShiftDelta delta;
  const int new_k = schedule.num_phases();
  delta.same_shape = (new_k == k_);
  delta.phase_dirty.assign(static_cast<size_t>(new_k), 0);
  if (!delta.same_shape) {
    // Phase count changed: every phase is new territory.
    delta.changed = true;
    for (char& d : delta.phase_dirty) d = 1;
    *this = ShiftTable(schedule);
    return delta;
  }
  delta.shifts_nondecreasing = true;
  if (schedule.cycle != cycle_) delta.changed = true;
  cycle_ = schedule.cycle;
  for (int i = 1; i <= k_; ++i) {
    const double s = schedule.s(i);
    const double w = schedule.T(i);
    if (s != start_[static_cast<size_t>(i - 1)] || w != width_[static_cast<size_t>(i - 1)]) {
      delta.changed = true;
      delta.phase_dirty[static_cast<size_t>(i - 1)] = 1;
    }
    start_[static_cast<size_t>(i - 1)] = s;
    width_[static_cast<size_t>(i - 1)] = w;
    for (int j = 1; j <= k_; ++j) {
      const size_t flat = static_cast<size_t>((i - 1) * k_ + (j - 1));
      const double v = schedule.shift(i, j);
      if (v != shift_[flat]) {
        delta.changed = true;
        delta.phase_dirty[static_cast<size_t>(i - 1)] = 1;
        delta.phase_dirty[static_cast<size_t>(j - 1)] = 1;
        if (v < shift_[flat]) delta.shifts_nondecreasing = false;
        shift_[flat] = v;
      }
    }
  }
  return delta;
}

TimingView::TimingView(const Circuit& circuit) {
  const StageTimer timer;
  // Reject circuits whose edge count would overflow the 32-bit path ids
  // BEFORE touching num_paths(): Circuit::num_paths() itself is an int cast
  // of the vector size, so it is already garbage past the ceiling.
  assert(edge_capacity_ok(static_cast<std::int64_t>(circuit.paths().size())) &&
         "circuit edge count exceeds TimingView::kMaxEdges; the flattened "
         "view (and Circuit's int path ids) cannot represent it");
  num_elements_ = circuit.num_elements();
  num_edges_ = circuit.num_paths();
  num_phases_ = circuit.num_phases();
  const size_t l = static_cast<size_t>(num_elements_);
  const size_t m = circuit.paths().size();

  latch_.resize(l);
  phase_.resize(l);
  setup_.resize(l);
  hold_.resize(l);
  dq_.resize(l);
  min_dq_.resize(l);
  skew_.resize(l);
  setup_margin_.resize(l);
  hold_margin_.resize(l);
  for (int i = 0; i < num_elements_; ++i) {
    const Element& e = circuit.element(i);
    assert(std::isfinite(e.skew) && e.skew >= 0.0 &&
           "element skew must be finite and nonnegative (Circuit::validate rejects it)");
    latch_[static_cast<size_t>(i)] = e.is_latch() ? 1 : 0;
    phase_[static_cast<size_t>(i)] = e.phase;
    setup_[static_cast<size_t>(i)] = e.setup;
    hold_[static_cast<size_t>(i)] = e.hold;
    dq_[static_cast<size_t>(i)] = e.dq;
    min_dq_[static_cast<size_t>(i)] = e.min_dq();
    skew_[static_cast<size_t>(i)] = e.skew;
    setup_margin_[static_cast<size_t>(i)] = e.setup + e.skew;
    hold_margin_[static_cast<size_t>(i)] = e.hold + e.skew;
    divergence_base_ += e.dq;
  }

  // Fan-in CSR: walk destinations in order, preserving each Circuit::fanin
  // list's (ascending path-index) order so kernel iteration order is
  // unchanged from the pre-refactor loops.
  fanin_offset_.assign(l + 1, 0);
  src_.resize(m);
  dst_.resize(m);
  path_of_edge_.resize(m);
  edge_of_path_.resize(m);
  shift_index_.resize(m);
  cross_.resize(m);
  max_const_.resize(m);
  min_const_.resize(m);
  path_delay_.resize(m);
  path_min_delay_.resize(m);
  edge_dirty_.assign(m, 0);
  // The accumulating slot counter is 64-bit: this is the sum that used to
  // wrap as `int` on circuits with > 2^31 fan-in slots.
  EdgeIndex e = 0;
  for (int i = 0; i < num_elements_; ++i) {
    fanin_offset_[static_cast<size_t>(i)] = e;
    for (const int p : circuit.fanin(i)) {
      const CombPath& path = circuit.path(p);
      const Element& src = circuit.element(path.from);
      src_[static_cast<size_t>(e)] = path.from;
      dst_[static_cast<size_t>(e)] = path.to;
      path_of_edge_[static_cast<size_t>(e)] = p;
      edge_of_path_[static_cast<size_t>(p)] = e;
      max_const_[static_cast<size_t>(e)] = src.dq + path.delay;
      min_const_[static_cast<size_t>(e)] = src.min_dq() + path.min_delay;
      path_delay_[static_cast<size_t>(e)] = path.delay;
      path_min_delay_[static_cast<size_t>(e)] = path.min_delay;
      shift_index_[static_cast<size_t>(e)] =
          (src.phase - 1) * num_phases_ + (phase_[static_cast<size_t>(i)] - 1);
      cross_[static_cast<size_t>(e)] = c_flag(src.phase, phase_[static_cast<size_t>(i)]);
      ++e;
    }
  }
  fanin_offset_[l] = e;
  assert(e == num_edges_ && "every path must appear in exactly one fanin list");

  for (const CombPath& p : circuit.paths()) divergence_base_ += p.delay;

  // Fan-out CSR: edge ids leaving each element, preserving Circuit::fanout
  // order.
  fanout_offset_.assign(l + 1, 0);
  fanout_edges_.resize(m);
  EdgeIndex f = 0;
  for (int i = 0; i < num_elements_; ++i) {
    fanout_offset_[static_cast<size_t>(i)] = f;
    for (const int p : circuit.fanout(i)) {
      fanout_edges_[static_cast<size_t>(f)] = edge_of_path_[static_cast<size_t>(p)];
      ++f;
    }
  }
  fanout_offset_[l] = f;

  build_seconds_ = timer.seconds();
}

void TimingView::mark_edge_dirty(EdgeIndex e) {
  if (!edge_dirty_[static_cast<size_t>(e)]) {
    edge_dirty_[static_cast<size_t>(e)] = 1;
    dirty_edges_.push_back(e);
  }
}

void TimingView::set_path_delay(int p, double delay) {
  const EdgeIndex e = edge_of_path_[static_cast<size_t>(p)];
  const double old = path_delay_[static_cast<size_t>(e)];
  if (delay == old) return;
  if (delay < old) max_nondecreasing_ = false;
  divergence_base_ += delay - old;
  path_delay_[static_cast<size_t>(e)] = delay;
  max_const_[static_cast<size_t>(e)] = dq_[static_cast<size_t>(src_[static_cast<size_t>(e)])] + delay;
  mark_edge_dirty(e);
}

void TimingView::set_path_min_delay(int p, double min_delay) {
  const EdgeIndex e = edge_of_path_[static_cast<size_t>(p)];
  if (min_delay == path_min_delay_[static_cast<size_t>(e)]) return;
  path_min_delay_[static_cast<size_t>(e)] = min_delay;
  min_const_[static_cast<size_t>(e)] =
      min_dq_[static_cast<size_t>(src_[static_cast<size_t>(e)])] + min_delay;
  mark_edge_dirty(e);
}

void TimingView::set_element_dq(int i, double dq) {
  const double old = dq_[static_cast<size_t>(i)];
  if (dq == old) return;
  if (dq < old) max_nondecreasing_ = false;
  divergence_base_ += dq - old;
  dq_[static_cast<size_t>(i)] = dq;
  const EdgeIndex end = fanout_end(i);
  for (EdgeIndex f = fanout_begin(i); f < end; ++f) {
    const EdgeIndex e = fanout_edges_[static_cast<size_t>(f)];
    max_const_[static_cast<size_t>(e)] = dq + path_delay_[static_cast<size_t>(e)];
    mark_edge_dirty(e);
  }
}

void TimingView::set_element_min_dq(int i, double min_dq) {
  if (min_dq == min_dq_[static_cast<size_t>(i)]) return;
  min_dq_[static_cast<size_t>(i)] = min_dq;
  const EdgeIndex end = fanout_end(i);
  for (EdgeIndex f = fanout_begin(i); f < end; ++f) {
    const EdgeIndex e = fanout_edges_[static_cast<size_t>(f)];
    min_const_[static_cast<size_t>(e)] = min_dq + path_min_delay_[static_cast<size_t>(e)];
    mark_edge_dirty(e);
  }
}

void TimingView::set_element_setup(int i, double setup) {
  if (setup == setup_[static_cast<size_t>(i)]) return;
  setup_[static_cast<size_t>(i)] = setup;
  setup_margin_[static_cast<size_t>(i)] = setup + skew_[static_cast<size_t>(i)];
}

void TimingView::set_element_hold(int i, double hold) {
  if (hold == hold_[static_cast<size_t>(i)]) return;
  hold_[static_cast<size_t>(i)] = hold;
  hold_margin_[static_cast<size_t>(i)] = hold + skew_[static_cast<size_t>(i)];
}

void TimingView::set_element_skew(int i, double skew) {
  assert(std::isfinite(skew) && skew >= 0.0 && "element skew must be finite and nonnegative");
  if (skew == skew_[static_cast<size_t>(i)]) return;
  skew_[static_cast<size_t>(i)] = skew;
  setup_margin_[static_cast<size_t>(i)] = setup_[static_cast<size_t>(i)] + skew;
  hold_margin_[static_cast<size_t>(i)] = hold_[static_cast<size_t>(i)] + skew;
}

void TimingView::clear_dirty() {
  for (const EdgeIndex e : dirty_edges_) edge_dirty_[static_cast<size_t>(e)] = 0;
  dirty_edges_.clear();
  max_nondecreasing_ = true;
}

double early_departure_update(const TimingView& view, const ShiftTable& shifts,
                              const std::vector<double>& departure, int i) {
  if (!view.is_latch(i)) return 0.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double earliest = kInf;
  const EdgeIndex end = view.fanin_end(i);
  for (EdgeIndex e = view.fanin_begin(i); e < end; ++e) {
    const double a = departure[static_cast<size_t>(view.edge_src(e))] +
                     view.edge_min_const(e) + shifts.at(view.edge_shift(e));
    if (a < earliest) earliest = a;
  }
  if (earliest == kInf) return 0.0;  // no fanin: departs at the leading edge
  return earliest > 0.0 ? earliest : 0.0;
}

double arrival_update(const TimingView& view, const ShiftTable& shifts,
                      const std::vector<double>& departure, int i) {
  double latest = -std::numeric_limits<double>::infinity();
  const EdgeIndex end = view.fanin_end(i);
  for (EdgeIndex e = view.fanin_begin(i); e < end; ++e) {
    const double a = departure[static_cast<size_t>(view.edge_src(e))] +
                     view.edge_max_const(e) + shifts.at(view.edge_shift(e));
    if (a > latest) latest = a;
  }
  return latest;
}

}  // namespace mintc
