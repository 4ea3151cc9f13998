#include "sta/session.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "obs/export.h"
#include "obs/trace.h"

namespace mintc::sta {

namespace {

// Registry lookups hash the name under a mutex; the session increments these
// on every edit/analyze, so resolve each handle once (handles stay valid
// across MetricsRegistry::reset()).
obs::Counter& session_counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name);
}

obs::Counter& invalidations_counter() {
  static obs::Counter& c = session_counter("session.invalidations");
  return c;
}

obs::Counter& warm_hits_counter() {
  static obs::Counter& c = session_counter("session.warm_hits");
  return c;
}

obs::Counter& cold_fallbacks_counter() {
  static obs::Counter& c = session_counter("session.cold_fallbacks");
  return c;
}

}  // namespace

AnalysisSession::AnalysisSession(Circuit circuit) : circuit_(std::move(circuit)) {
  pristine_elements_.reserve(circuit_.elements().size());
  for (const Element& e : circuit_.elements()) {
    pristine_elements_.push_back({e.setup, e.dq, e.dq_min});
  }
  pristine_paths_.reserve(circuit_.paths().size());
  for (const CombPath& p : circuit_.paths()) pristine_paths_.push_back({p.delay, p.min_delay});
}

AnalysisSession::AnalysisSession(Circuit circuit, ClockSchedule schedule,
                                 AnalysisOptions options)
    : AnalysisSession(std::move(circuit)) {
  schedule_ = std::move(schedule);
  options_ = options;
  has_schedule_ = true;
}

void AnalysisSession::touch() {
  // Every state-changing applier funnels through here except label edits,
  // which are timing-neutral and only bump the generation.
  ++generation_;
  if (report_valid_) {
    report_valid_ = false;
    ++counters_.invalidations;
    invalidations_counter().inc();
  }
}

// -- Content fingerprint -----------------------------------------------------

namespace {

// splitmix64's finalizer. FNV-1a leaves its low output bits a function of
// the low input bits alone; spreading each term over all 64 bits keeps the
// additive combination in content_sum_ from inheriting that structure.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t AnalysisSession::element_term(int i) const {
  const Element& e = circuit_.element(i);
  obs::Fnv1a h;
  h.i32(0).i32(i);  // item kind and index: the sum alone is order-blind
  h.str(e.name);
  h.i32(static_cast<std::int32_t>(e.kind));
  h.i32(e.phase);
  h.num(e.setup).num(e.hold).num(e.dq).num(e.dq_min).num(e.skew);
  return mix64(h.digest());
}

std::uint64_t AnalysisSession::path_term(int p) const {
  const CombPath& path = circuit_.path(p);
  obs::Fnv1a h;
  h.i32(1).i32(p);
  h.i32(path.from).i32(path.to);
  h.num(path.delay).num(path.min_delay);
  h.str(path.label);  // labels render in reports, so they are content
  return mix64(h.digest());
}

template <typename Fn>
void AnalysisSession::edit_element(int i, Fn&& mutate) {
  if (content_sum_stale_) {
    mutate();
    return;
  }
  content_sum_ -= element_term(i);
  mutate();
  content_sum_ += element_term(i);
}

template <typename Fn>
void AnalysisSession::edit_path(int p, Fn&& mutate) {
  if (content_sum_stale_) {
    mutate();
    return;
  }
  content_sum_ -= path_term(p);
  mutate();
  content_sum_ += path_term(p);
}

std::uint64_t AnalysisSession::content_fingerprint() const {
  if (content_sum_stale_) {
    content_sum_ = 0;
    for (int i = 0; i < circuit_.num_elements(); ++i) content_sum_ += element_term(i);
    for (int p = 0; p < circuit_.num_paths(); ++p) content_sum_ += path_term(p);
    content_sum_stale_ = false;
  }
  obs::Fnv1a h;
  h.str(circuit_.name());
  h.i32(circuit_.num_phases());
  h.i32(circuit_.num_elements());
  h.i32(circuit_.num_paths());
  h.u64(has_schedule_ ? 1 : 0);
  if (has_schedule_) {
    h.num(schedule_.cycle);
    for (const double s : schedule_.start) h.num(s);
    for (const double t : schedule_.width) h.num(t);
  }
  h.u64(content_sum_);
  return h.digest();
}

std::vector<std::string> AnalysisSession::validate_since(size_t mark) const {
  assert(mark >= forgotten_ && "mark is forgotten");
  assert(mark <= this->mark() && "mark is ahead of the log");
  std::vector<int> elements;
  std::vector<int> paths;
  for (size_t r = mark - forgotten_; r < undo_.size(); ++r) {
    const UndoRecord& rec = undo_[r];
    switch (rec.kind) {
      case UndoRecord::Kind::kPathDelay:
      case UndoRecord::Kind::kPathMinDelay:
      case UndoRecord::Kind::kPathLabel:
        paths.push_back(rec.index);
        break;
      case UndoRecord::Kind::kElementDq:
      case UndoRecord::Kind::kElementDqMin:
      case UndoRecord::Kind::kElementSetup:
      case UndoRecord::Kind::kElementHold:
      case UndoRecord::Kind::kElementSkew:
        elements.push_back(rec.index);
        break;
      case UndoRecord::Kind::kSchedule:
        break;  // validate() does not read the schedule
      case UndoRecord::Kind::kPathRemoved:
      case UndoRecord::Kind::kElementRemoved:
        return circuit_.validate();  // earlier records' indices have shifted
    }
  }
  // validate() reports elements, then paths, each in index order.
  std::vector<std::string> problems;
  for (std::vector<int>* items : {&elements, &paths}) {
    std::sort(items->begin(), items->end());
    items->erase(std::unique(items->begin(), items->end()), items->end());
  }
  for (const int i : elements) circuit_.validate_element(i, problems);
  for (const int p : paths) circuit_.validate_path(p, problems);
  return problems;
}

// -- Appliers (no undo logging) ---------------------------------------------

void AnalysisSession::apply_path_delay(int p, double delay) {
  edit_path(p, [&] { circuit_.set_path_delay(p, delay); });
  if (view_) view_->set_path_delay(p, delay);
  touch();
}

void AnalysisSession::apply_path_min_delay(int p, double min_delay) {
  edit_path(p, [&] { circuit_.set_path_min_delay(p, min_delay); });
  if (view_) view_->set_path_min_delay(p, min_delay);
  early_valid_ = false;
  touch();
}

void AnalysisSession::apply_path_label(int p, std::string label) {
  edit_path(p, [&] { circuit_.set_path_label(p, std::move(label)); });
  ++generation_;  // timing-neutral, so no touch(); but labels are content
}

void AnalysisSession::apply_element_dq(int i, double dq) {
  Element& e = circuit_.element(i);
  edit_element(i, [&] { e.dq = dq; });
  if (view_) {
    view_->set_element_dq(i, dq);
    // A tracking dq_min (< 0) resolves to dq, so the short-path constants
    // move too.
    if (e.dq_min < 0.0) view_->set_element_min_dq(i, dq);
  }
  if (e.dq_min < 0.0) early_valid_ = false;
  touch();
}

void AnalysisSession::apply_element_dq_min(int i, double dq_min) {
  Element& e = circuit_.element(i);
  edit_element(i, [&] { e.dq_min = dq_min; });
  if (view_) view_->set_element_min_dq(i, e.min_dq());
  early_valid_ = false;
  touch();
}

void AnalysisSession::apply_element_setup(int i, double setup) {
  edit_element(i, [&] { circuit_.element(i).setup = setup; });
  if (view_) view_->set_element_setup(i, setup);
  param_edited_.push_back(i);
  touch();
}

void AnalysisSession::apply_element_hold(int i, double hold) {
  edit_element(i, [&] { circuit_.element(i).hold = hold; });
  if (view_) view_->set_element_hold(i, hold);
  param_edited_.push_back(i);
  touch();
}

void AnalysisSession::apply_element_skew(int i, double skew) {
  edit_element(i, [&] { circuit_.element(i).skew = skew; });
  if (view_) view_->set_element_skew(i, skew);
  param_edited_.push_back(i);
  touch();
}

void AnalysisSession::apply_schedule(const ClockSchedule& schedule) {
  schedule_ = schedule;
  has_schedule_ = true;
  if (shifts_) {
    const ShiftDelta delta = shifts_->update(schedule);
    if (!delta.changed) return;  // identical timing: nothing to invalidate
    schedule_changed_ = true;
    if (!delta.same_shape || !delta.shifts_nondecreasing) schedule_warm_ok_ = false;
  } else {
    schedule_changed_ = true;
    schedule_warm_ok_ = false;
  }
  early_valid_ = false;
  touch();
}

void AnalysisSession::apply_structural() {
  ++structure_stamp_;
  structural_dirty_ = true;
  view_.reset();  // edge numbering is stale; analyze() rebuilds
  early_valid_ = false;
  content_sum_stale_ = true;  // items renumbered: every later term moved
  touch();
}

// -- Logged mutators ---------------------------------------------------------

void AnalysisSession::set_path_delay(int p, double delay) {
  const double old = circuit_.path(p).delay;
  if (delay == old) return;
  undo_.push_back({UndoRecord::Kind::kPathDelay, p, old});
  apply_path_delay(p, delay);
}

void AnalysisSession::set_path_min_delay(int p, double min_delay) {
  const double old = circuit_.path(p).min_delay;
  if (min_delay == old) return;
  undo_.push_back({UndoRecord::Kind::kPathMinDelay, p, old});
  apply_path_min_delay(p, min_delay);
}

void AnalysisSession::set_path_delays(int p, double delay, double min_delay) {
  assert(min_delay <= delay);
  // Order the two edits so delay >= min_delay holds at every step.
  if (delay >= circuit_.path(p).min_delay) {
    set_path_delay(p, delay);
    set_path_min_delay(p, min_delay);
  } else {
    set_path_min_delay(p, min_delay);
    set_path_delay(p, delay);
  }
}

void AnalysisSession::set_path_label(int p, std::string label) {
  if (circuit_.path(p).label == label) return;
  undo_.push_back({UndoRecord::Kind::kPathLabel, p, 0.0});
  undo_labels_.push_back(circuit_.path(p).label);
  apply_path_label(p, std::move(label));
}

void AnalysisSession::set_element_dq(int i, double dq) {
  const double old = circuit_.element(i).dq;
  if (dq == old) return;
  undo_.push_back({UndoRecord::Kind::kElementDq, i, old});
  apply_element_dq(i, dq);
}

void AnalysisSession::set_element_dq_min(int i, double dq_min) {
  const double old = circuit_.element(i).dq_min;
  if (dq_min == old) return;
  undo_.push_back({UndoRecord::Kind::kElementDqMin, i, old});
  apply_element_dq_min(i, dq_min);
}

void AnalysisSession::set_element_setup(int i, double setup) {
  const double old = circuit_.element(i).setup;
  if (setup == old) return;
  undo_.push_back({UndoRecord::Kind::kElementSetup, i, old});
  apply_element_setup(i, setup);
}

void AnalysisSession::set_element_hold(int i, double hold) {
  const double old = circuit_.element(i).hold;
  if (hold == old) return;
  undo_.push_back({UndoRecord::Kind::kElementHold, i, old});
  apply_element_hold(i, hold);
}

void AnalysisSession::set_element_skew(int i, double skew) {
  const double old = circuit_.element(i).skew;
  if (skew == old) return;
  undo_.push_back({UndoRecord::Kind::kElementSkew, i, old});
  apply_element_skew(i, skew);
}

void AnalysisSession::set_schedule(const ClockSchedule& schedule) {
  if (schedule.cycle == schedule_.cycle && schedule.start == schedule_.start &&
      schedule.width == schedule_.width && has_schedule_) {
    return;
  }
  assert(schedule_.start.size() == schedule_.width.size());
  undo_.push_back({UndoRecord::Kind::kSchedule, schedule_.num_phases(), schedule_.cycle});
  undo_schedules_.insert(undo_schedules_.end(), schedule_.start.begin(), schedule_.start.end());
  undo_schedules_.insert(undo_schedules_.end(), schedule_.width.begin(), schedule_.width.end());
  apply_schedule(schedule);
}

bool AnalysisSession::derating_allowed() const {
  return circuit_.num_elements() == static_cast<int>(pristine_elements_.size()) &&
         circuit_.num_paths() == static_cast<int>(pristine_paths_.size());
}

void AnalysisSession::apply_derating(double delay_scale, double min_scale) {
  assert(circuit_.num_elements() == static_cast<int>(pristine_elements_.size()) &&
         circuit_.num_paths() == static_cast<int>(pristine_paths_.size()) &&
         "derating requires an unmodified structure");
  // Same arithmetic as sta::derate (corners.cpp), applied to the pristine
  // reference, so a session corner is bit-identical to a cold analysis of
  // the derated copy. Clock skew is a clock-network property, not a silicon
  // delay: corners leave it unscaled (both here and in sta::derate).
  for (int i = 0; i < circuit_.num_elements(); ++i) {
    const PristineElement& e = pristine_elements_[static_cast<size_t>(i)];
    const double setup = e.setup * delay_scale;
    const double dq = e.dq * delay_scale;
    double dq_min = (e.dq_min >= 0.0 ? e.dq_min : e.dq) * min_scale;
    if (dq_min > dq) dq_min = dq;
    set_element_setup(i, setup);
    set_element_dq(i, dq);
    set_element_dq_min(i, dq_min);
  }
  for (int p = 0; p < circuit_.num_paths(); ++p) {
    const PristinePath& path = pristine_paths_[static_cast<size_t>(p)];
    const double max_d = path.delay * delay_scale;
    const double min_d = std::min(path.min_delay * min_scale, max_d);
    set_path_delays(p, max_d, min_d);
  }
}

// -- Structural edits --------------------------------------------------------

void AnalysisSession::remove_path(int p) {
  undo_.push_back({UndoRecord::Kind::kPathRemoved, p, 0.0});
  undo_paths_.push_back(circuit_.remove_path(p));
  apply_structural();
}

void AnalysisSession::remove_element(int i) {
  std::vector<int> incident = circuit_.fanin(i);
  for (const int p : circuit_.fanout(i)) {
    if (circuit_.path(p).to != i) incident.push_back(p);  // self-loops once
  }
  std::sort(incident.begin(), incident.end(), std::greater<int>());
  for (const int p : incident) remove_path(p);
  undo_.push_back({UndoRecord::Kind::kElementRemoved, i, 0.0});
  undo_elements_.push_back(circuit_.remove_element(i));
  apply_structural();
}

// -- Undo --------------------------------------------------------------------

void AnalysisSession::undo() {
  assert(!undo_.empty() && "undo with an empty log");
  const UndoRecord rec = undo_.back();
  undo_.pop_back();
  switch (rec.kind) {
    case UndoRecord::Kind::kPathDelay:
      apply_path_delay(rec.index, rec.value);
      break;
    case UndoRecord::Kind::kPathMinDelay:
      apply_path_min_delay(rec.index, rec.value);
      break;
    case UndoRecord::Kind::kPathLabel:
      apply_path_label(rec.index, std::move(undo_labels_.back()));
      undo_labels_.pop_back();
      break;
    case UndoRecord::Kind::kElementDq:
      apply_element_dq(rec.index, rec.value);
      break;
    case UndoRecord::Kind::kElementDqMin:
      apply_element_dq_min(rec.index, rec.value);
      break;
    case UndoRecord::Kind::kElementSetup:
      apply_element_setup(rec.index, rec.value);
      break;
    case UndoRecord::Kind::kElementHold:
      apply_element_hold(rec.index, rec.value);
      break;
    case UndoRecord::Kind::kElementSkew:
      apply_element_skew(rec.index, rec.value);
      break;
    case UndoRecord::Kind::kSchedule: {
      const auto k = static_cast<std::ptrdiff_t>(rec.index);
      const auto widths = undo_schedules_.end() - k;
      const auto starts = widths - k;
      apply_schedule(ClockSchedule(rec.value, std::vector<double>(starts, widths),
                                   std::vector<double>(widths, undo_schedules_.end())));
      undo_schedules_.erase(starts, undo_schedules_.end());
      break;
    }
    case UndoRecord::Kind::kPathRemoved:
      circuit_.insert_path(rec.index, std::move(undo_paths_.back()));
      undo_paths_.pop_back();
      apply_structural();  // later undos may touch re-inserted indices
      break;
    case UndoRecord::Kind::kElementRemoved:
      circuit_.insert_element(rec.index, std::move(undo_elements_.back()));
      undo_elements_.pop_back();
      apply_structural();
      break;
  }
}

void AnalysisSession::undo_to(size_t mark) {
  assert(mark >= forgotten_ && "mark is forgotten");
  assert(mark <= this->mark() && "mark is ahead of the log");
  while (this->mark() > mark) undo();
}

void AnalysisSession::forget_before(size_t mark) {
  assert(mark <= this->mark() && "mark is ahead of the log");
  // Each side stack holds its payloads in their records' order, so the
  // oldest record's payload is at the front of its stack.
  for (; forgotten_ < mark; ++forgotten_) {
    const UndoRecord rec = undo_.front();
    undo_.pop_front();
    switch (rec.kind) {
      case UndoRecord::Kind::kPathDelay:
      case UndoRecord::Kind::kPathMinDelay:
      case UndoRecord::Kind::kElementDq:
      case UndoRecord::Kind::kElementDqMin:
      case UndoRecord::Kind::kElementSetup:
      case UndoRecord::Kind::kElementHold:
      case UndoRecord::Kind::kElementSkew:
        break;  // the record holds its scalar
      case UndoRecord::Kind::kPathLabel:
        undo_labels_.pop_front();
        break;
      case UndoRecord::Kind::kSchedule:
        undo_schedules_.erase(undo_schedules_.begin(),
                              undo_schedules_.begin() + 2 * static_cast<std::ptrdiff_t>(rec.index));
        break;
      case UndoRecord::Kind::kPathRemoved:
        undo_paths_.pop_front();
        break;
      case UndoRecord::Kind::kElementRemoved:
        undo_elements_.pop_front();
        break;
    }
  }
}

// -- Analysis ----------------------------------------------------------------

const TimingReport& AnalysisSession::analyze() {
  assert(has_schedule_ && "analyze() needs a schedule (use the two-arg ctor)");
  ++counters_.analyses;
  if (report_valid_) {
    // Nothing changed since the last analyze: serve the cached report.
    ++counters_.warm_hits;
    warm_hits_counter().inc();
    return report_;
  }
  const obs::TraceSpan span("session.analyze", "sta");
  const bool had_report = have_report_;

  bool rebuilt = false;
  const auto rebuild = [&] {
    engine_.reset();
    view_.emplace(circuit_);
    shifts_.emplace(schedule_);
    engine_.emplace(*view_, options_.fixpoint);
    rebuilt = true;
  };
  if (!view_ || structural_dirty_) rebuild();
  const int l = circuit_.num_elements();

  // Cold solves run the engine check_schedule runs, on the plan kept with
  // the view. Warm starts take the event-driven path — they touch a handful
  // of latches.
  const auto cold_solve = [&]() -> FixpointResult {
    return engine_->solve(*shifts_, std::vector<double>(static_cast<size_t>(l), 0.0));
  };

  // Warm start is sound only for a monotone-nondecreasing perturbation of a
  // previously converged system on the same structure (see header) — and
  // only from an EXACT previous fixpoint. A cold solve may stop eps-short of
  // the exact least fixpoint on slowly (geometrically) converging feedback
  // loops; climbing from that point would settle above what a fresh cold
  // solve reports, breaking bit-identity.
  const bool warm_eligible = had_report && !rebuilt && report_.fixpoint.converged &&
                             fixpoint_exact_ && view_->max_nondecreasing() &&
                             (!schedule_changed_ || schedule_warm_ok_);
  FixpointResult fp;
  bool warm = false;
  if (warm_eligible) {
    seeds_.clear();
    raised_.clear();
    if (schedule_changed_) {
      // Any latch's inputs may have shifted: seed everything. Still cheap —
      // one relaxation pass over an already-solved vector.
      for (int i = 0; i < l; ++i) seeds_.push_back(i);
    } else {
      for (const EdgeIndex e : view_->dirty_edges()) seeds_.push_back(view_->edge_dst(e));
    }
    // The previous departure vector is consumed (moved) as the warm start;
    // report_ is stale either way and gets rebuilt below.
    fp = warm_departures(*view_, *shifts_, std::move(report_.fixpoint.departure), seeds_,
                         options_.fixpoint, &raised_);
    warm = fp.converged;
  }
  if (!warm) {
    fp = cold_solve();
    // One O(l+E) read-only pass decides whether future warm starts are
    // bit-identity-safe (see fixpoint_exact_ in the header). Warm solves
    // keep the previous (true) value.
    fixpoint_exact_ =
        fp.converged && fixpoint_residual(*view_, *shifts_, fp.departure) == 0.0;
    if (!fp.converged && !rebuilt) {
      // The incrementally maintained divergence bound can drift by ulps from
      // a fresh build's; on the (rare) non-converged path, rebuild and rerun
      // so even the divergence diagnostics match a cold analysis exactly.
      rebuild();
      fp = cold_solve();
      fixpoint_exact_ =
          fp.converged && fixpoint_residual(*view_, *shifts_, fp.departure) == 0.0;
    }
  }

  // Warm fast path: parameter-only edits on an unchanged schedule rewrite the
  // cached report in place, recomputing only the records whose inputs moved
  // (see refresh_report_warm). Everything else provably did not move: the
  // clock constraints, the early min-fixpoint and every other record.
  if (warm && !schedule_changed_ && !options_.provenance &&
      (!options_.check_hold || early_valid_)) {
    if (options_.check_hold && had_report) ++counters_.hold_reuses;
    refresh_report_warm(std::move(fp));
  } else {
    const FixpointResult* early_ptr = nullptr;
    if (options_.check_hold) {
      if (!early_valid_) {
        early_ = compute_early_departures(*view_, *shifts_, options_.fixpoint);
        early_valid_ = true;
      } else if (had_report) {
        ++counters_.hold_reuses;
      }
      early_ptr = &early_;
    }
    report_ = assemble_report(circuit_, schedule_, *view_, *shifts_, options_,
                              std::move(fp), early_ptr);
  }

  if (warm) {
    ++counters_.warm_hits;
    warm_hits_counter().inc();
  } else if (had_report) {
    ++counters_.cold_fallbacks;
    cold_fallbacks_counter().inc();
  }

  view_->clear_dirty();
  param_edited_.clear();
  schedule_changed_ = false;
  schedule_warm_ok_ = true;
  structural_dirty_ = false;
  report_valid_ = true;
  have_report_ = true;
  return report_;
}

void AnalysisSession::refresh_report_warm(FixpointResult fp) {
  const StageTimer wall_timer;
  TimingReport& rep = report_;

  // Unchanged since the last full assembly: clock_violations / schedule_ok
  // (schedule untouched) and provenance (off on this path).
  rep.fixpoint = std::move(fp);
  rep.converged = rep.fixpoint.converged;
  rep.stats = EngineStats{};
  rep.stats.sweeps = rep.fixpoint.sweeps;
  rep.stats.edge_relaxations = rep.fixpoint.stats.edge_relaxations;
  rep.stats.solve_seconds = rep.fixpoint.stats.solve_seconds;

  // The records whose inputs moved. A setup record reads D_i, the fan-in
  // edges' max constants and source departures (through A_i) and i's setup
  // margin; a hold record reads the early vector, min constants and shifts
  // (none of which moved on this path) and i's hold margin.
  const int l = circuit_.num_elements();
  refresh_mark_.resize(static_cast<size_t>(l), 0);
  setup_refresh_.clear();
  hold_refresh_.clear();
  const auto add = [&](int i) {
    char& queued = refresh_mark_[static_cast<size_t>(i)];
    if (queued != 0) return false;
    queued = 1;
    setup_refresh_.push_back(i);
    return true;
  };
  for (const int i : param_edited_) {
    if (add(i)) hold_refresh_.push_back(i);
  }
  for (const EdgeIndex e : view_->dirty_edges()) add(view_->edge_dst(e));
  for (const int i : raised_) {
    add(i);
    const EdgeIndex fo_end = view_->fanout_end(i);
    for (EdgeIndex f = view_->fanout_begin(i); f < fo_end; ++f) {
      add(view_->edge_dst(view_->fanout_edge(f)));
    }
  }

  refresh_slacks(*view_, schedule_, *shifts_, setup_refresh_, hold_refresh_,
                 options_.check_hold ? &early_.departure : nullptr, options_.eps, rep);
  for (const int i : setup_refresh_) refresh_mark_[static_cast<size_t>(i)] = 0;
  counters_.slack_refreshes += static_cast<long>(setup_refresh_.size());

  rep.feasible = rep.schedule_ok && rep.converged && rep.setup_ok && rep.hold_ok;
  rep.stats.wall_seconds = wall_timer.seconds();
}

}  // namespace mintc::sta
