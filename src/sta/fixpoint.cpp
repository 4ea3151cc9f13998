#include "sta/fixpoint.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "graph/scc.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mintc::sta {

namespace {

// What a solve's components did, summed over the components.
struct Tally {
  std::int64_t updates = 0;
  long relaxations = 0;
  int max_sweeps = 0;
  bool diverged = false;
  bool sweep_limited = false;
};

// The per-component routine — the one place eq. (17) is iterated cold.
// Sweeps component `c`'s members Gauss-Seidel, in ascending index, until no
// member moves by more than eps; a component without a cycle gets one pass.
// Stops at the first value past the divergence bound. Instantiated with
// tracing on and off, so the disabled-tracing loop tracks no residual.
template <bool kTracing>
void solve_component(const TimingView& view, const ShiftTable& shifts, const SccPlan& plan,
                     int c, std::vector<double>& d, double eps, double bound, int max_sweeps,
                     Tally& tally) {
  const int* first = plan.members.data() + plan.member_offset[static_cast<size_t>(c)];
  const int* last = plan.members.data() + plan.member_offset[static_cast<size_t>(c) + 1];
  const bool cyclic = plan.cyclic[static_cast<size_t>(c)] != 0;
  // Locals, not tally fields: the departure stores in the loop would
  // otherwise force the counters back to memory on every member.
  std::int64_t updates = 0;
  long relaxations = 0;
  int sweeps = 0;
  bool settled = false;
  bool diverged = false;
  while (!settled && !diverged && sweeps < max_sweeps) {
    bool changed = false;
    [[maybe_unused]] double residual = 0.0;  // max |ΔD| this sweep
    for (const int* m = first; m != last; ++m) {
      const int i = *m;
      ++updates;
      relaxations += static_cast<long>(view.fanin_count(i));
      const double v = mintc::departure_update(view, shifts, d, i);
      const double delta = std::fabs(v - d[static_cast<size_t>(i)]);
      if (delta > eps) changed = true;
      if constexpr (kTracing) residual = std::max(residual, delta);
      d[static_cast<size_t>(i)] = v;
      if (v > bound) {
        diverged = true;
        break;
      }
    }
    ++sweeps;
    if constexpr (kTracing) {
      if (cyclic) obs::Tracer::instance().counter("fixpoint.residual", residual, "sta");
    }
    settled = !changed || !cyclic;
  }
  tally.updates += updates;
  tally.relaxations += relaxations;
  tally.max_sweeps = std::max(tally.max_sweeps, sweeps);
  tally.diverged = tally.diverged || diverged;
  tally.sweep_limited = tally.sweep_limited || (!settled && !diverged);
}

// The cold solve's registry handles, resolved once: each lookup builds a
// labeled key under a mutex, and session cold solves run per request.
struct SolveMetrics {
  obs::Counter& solves;
  obs::Counter& sweeps;
  obs::Counter& relaxations;
  obs::Histogram& sweeps_per_solve;
};

SolveMetrics& solve_metrics() {
  static SolveMetrics m = [] {
    auto& reg = obs::MetricsRegistry::instance();
    const obs::Labels labels = {{"scheme", "scc-ordered"}};
    return SolveMetrics{reg.counter("fixpoint.solves", labels),
                        reg.counter("fixpoint.sweeps", labels),
                        reg.counter("fixpoint.edge_relaxations", labels),
                        reg.histogram("fixpoint.sweeps_per_solve", labels)};
  }();
  return m;
}

}  // namespace

const char* to_string(FixpointStatus status) {
  switch (status) {
    case FixpointStatus::kConverged: return "converged";
    case FixpointStatus::kDiverged: return "diverged";
    case FixpointStatus::kSweepLimit: return "sweep-limit";
  }
  return "?";
}

double fixpoint_residual(const TimingView& view, const ShiftTable& shifts,
                         const std::vector<double>& departure) {
  double residual = 0.0;
  for (int i = 0; i < view.num_elements(); ++i) {
    const double v = mintc::departure_update(view, shifts, departure, i);
    const double delta = std::fabs(v - departure[static_cast<size_t>(i)]);
    if (delta > residual) residual = delta;
  }
  return residual;
}

double divergence_bound(const TimingView& view, const ShiftTable& shifts) {
  // Any departure beyond this bound means a positive loop: in one period a
  // signal cannot legitimately accumulate more than every delay in the
  // circuit plus a full cycle of slack.
  return std::fabs(shifts.cycle()) * (view.num_phases() + 1) + 1.0 + view.divergence_base();
}

double departure_update(const Circuit& circuit, const ClockSchedule& schedule,
                        const std::vector<double>& departure, int i) {
  const TimingView view(circuit);
  const ShiftTable shifts(schedule);
  return mintc::departure_update(view, shifts, departure, i);
}

SccPlan::SccPlan(const TimingView& view) {
  const int l = view.num_elements();
  const auto at = [](int i) { return static_cast<size_t>(i); };

  // Tarjan over the fan-out CSR numbers the components sinks first.
  std::vector<int> component;
  num_components = graph::tarjan_components(
      l, [&](int v) { return std::pair(view.fanout_begin(v), view.fanout_end(v)); },
      [&](int, EdgeIndex f) { return view.edge_dst(view.fanout_edge(f)); }, component);

  // Renumber sources first, then bucket the members: walking elements in
  // index order leaves every component's member list ascending.
  const auto nc = static_cast<size_t>(num_components);
  for (int& c : component) c = num_components - 1 - c;
  member_offset.assign(nc + 1, 0);
  for (const int c : component) ++member_offset[at(c) + 1];
  for (size_t c = 0; c < nc; ++c) member_offset[c + 1] += member_offset[c];
  members.resize(at(l));
  std::vector<int> cursor(member_offset.begin(), member_offset.end() - 1);
  for (int i = 0; i < l; ++i) members[at(cursor[at(component[at(i)])]++)] = i;

  cyclic.assign(nc, 0);
  for (size_t c = 0; c < nc; ++c) cyclic[c] = member_offset[c + 1] - member_offset[c] > 1;
  for (EdgeIndex e = 0; e < view.num_edges(); ++e) {
    if (view.edge_src(e) == view.edge_dst(e)) cyclic[at(component[at(view.edge_src(e))])] = 1;
  }
}

FixpointEngine::FixpointEngine(const TimingView& view, const FixpointOptions& options)
    : view_(view), options_(options), plan_(view) {}

FixpointResult FixpointEngine::solve(const ShiftTable& shifts,
                                     std::vector<double> initial) const {
  const int l = view_.num_elements();
  assert(static_cast<int>(initial.size()) == l);
  assert(shifts.num_phases() >= view_.num_phases());
  const StageTimer timer;
  const obs::TraceSpan span("fixpoint.solve", "sta");
  const bool tracing = obs::Tracer::instance().enabled();
  FixpointResult res;
  res.departure = std::move(initial);
  const double eps = options_.eps;
  const double bound = divergence_bound(view_, shifts);
  const int max_sweeps = options_.effective_max_sweeps(l);

  // Topological order: every component reads only finished upstream ones.
  Tally total;
  for (int c = 0; c < plan_.num_components; ++c) {
    if (tracing) {
      solve_component<true>(view_, shifts, plan_, c, res.departure, eps, bound, max_sweeps,
                            total);
    } else {
      solve_component<false>(view_, shifts, plan_, c, res.departure, eps, bound, max_sweeps,
                             total);
    }
  }

  res.updates = total.updates;
  res.sweeps = total.max_sweeps;
  res.stats.edge_relaxations = total.relaxations;
  // Divergence trumps the sweep budget, which trumps convergence.
  if (total.diverged) {
    res.diverged = true;
    res.status = FixpointStatus::kDiverged;
  } else if (total.sweep_limited) {
    // Attach the outstanding residual (one extra read-only pass) so the
    // caller can tell "nearly there" from "nowhere close".
    res.status = FixpointStatus::kSweepLimit;
    res.residual = fixpoint_residual(view_, shifts, res.departure);
  } else {
    res.converged = true;
    res.status = FixpointStatus::kConverged;
  }
  res.stats.sweeps = res.sweeps;
  res.stats.solve_seconds = timer.seconds();
  res.stats.wall_seconds = res.stats.solve_seconds;

  SolveMetrics& metrics = solve_metrics();
  metrics.solves.inc();
  metrics.sweeps.inc(res.sweeps);
  metrics.relaxations.inc(res.stats.edge_relaxations);
  metrics.sweeps_per_solve.observe(static_cast<double>(res.sweeps));
  // Attribute the solve's work to the requesting context (serve layer);
  // one pointer test when no account is installed.
  obs::charge_solve(res.stats.edge_relaxations, res.sweeps);
  if (tracing && res.diverged) obs::Tracer::instance().instant("fixpoint.diverged", "sta");
  return res;
}

FixpointResult compute_departures(const Circuit& circuit, const ClockSchedule& schedule,
                                  std::vector<double> initial, const FixpointOptions& options) {
  const TimingView view(circuit);
  const ShiftTable shifts(schedule);
  FixpointResult res = compute_departures(view, shifts, std::move(initial), options);
  res.stats.view_build_seconds = view.build_seconds();
  res.stats.shift_build_seconds = shifts.build_seconds();
  res.stats.wall_seconds += view.build_seconds() + shifts.build_seconds();
  return res;
}

FixpointResult compute_departures(const TimingView& view, const ShiftTable& shifts,
                                  std::vector<double> initial, const FixpointOptions& options) {
  return FixpointEngine(view, options).solve(shifts, std::move(initial));
}

FixpointResult warm_departures(const TimingView& view, const ShiftTable& shifts,
                               std::vector<double> departure, const std::vector<int>& seeds,
                               const FixpointOptions& options, std::vector<int>* raised) {
  const int l = view.num_elements();
  assert(static_cast<int>(departure.size()) == l);
  const StageTimer timer;
  const obs::TraceSpan span("fixpoint.warm", "sta");
  FixpointResult res;
  res.departure = std::move(departure);
  const double bound = divergence_bound(view, shifts);

  std::vector<bool> queued(static_cast<size_t>(l), false);
  // Elements already in *raised: a climb can raise one element millions of
  // times before the update budget runs out.
  std::vector<bool> rose(raised != nullptr ? static_cast<size_t>(l) : 0, false);
  std::vector<int> work;
  work.reserve(seeds.size());
  for (const int i : seeds) {
    if (!queued[static_cast<size_t>(i)]) {
      queued[static_cast<size_t>(i)] = true;
      work.push_back(i);
    }
  }
  // A few sweeps' worth of updates. A warm start after a small raise settles
  // in about one sweep; a longer climb is creeping round a loop of (near)
  // zero gain, as at a schedule `min` just made tight, which a cold solve
  // ends far sooner.
  constexpr int kWarmSweeps = 8;
  const std::int64_t max_updates =
      static_cast<std::int64_t>(std::min(kWarmSweeps, options.effective_max_sweeps(l))) *
      std::max(1, l);
  size_t head = 0;
  while (head < work.size()) {
    if (res.updates >= max_updates) break;
    const int i = work[head++];
    queued[static_cast<size_t>(i)] = false;
    ++res.updates;
    res.stats.edge_relaxations += view.fanin_count(i);
    const double v = mintc::departure_update(view, shifts, res.departure, i);
    // Strict acceptance: from an exact previous fixpoint under nondecreasing
    // weights, every genuine move is upward; an eps deadband here would stop
    // short of the exact least fixpoint the cold engines settle on.
    if (v <= res.departure[static_cast<size_t>(i)]) continue;
    res.departure[static_cast<size_t>(i)] = v;
    if (raised != nullptr && !rose[static_cast<size_t>(i)]) {
      rose[static_cast<size_t>(i)] = true;
      raised->push_back(i);
    }
    if (v > bound) {
      res.diverged = true;
      break;
    }
    const EdgeIndex fo_end = view.fanout_end(i);
    for (EdgeIndex f = view.fanout_begin(i); f < fo_end; ++f) {
      const int dst = view.edge_dst(view.fanout_edge(f));
      if (!queued[static_cast<size_t>(dst)]) {
        queued[static_cast<size_t>(dst)] = true;
        work.push_back(dst);
      }
    }
    if (head > 4096 && head * 2 > work.size()) {
      work.erase(work.begin(), work.begin() + static_cast<long>(head));
      head = 0;
    }
  }
  if (!res.diverged && head == work.size()) res.converged = true;
  if (res.converged) {
    res.status = FixpointStatus::kConverged;
  } else if (res.diverged) {
    res.status = FixpointStatus::kDiverged;
  } else {
    res.status = FixpointStatus::kSweepLimit;
    res.residual = fixpoint_residual(view, shifts, res.departure);
  }
  res.sweeps = static_cast<int>((res.updates + l - 1) / std::max(1, l));
  res.stats.sweeps = res.sweeps;
  res.stats.solve_seconds = timer.seconds();
  res.stats.wall_seconds = res.stats.solve_seconds;
  // This runs once per warm analyze (the session's hot loop), so resolve the
  // registry handles once — each lookup builds a labeled key under a mutex.
  auto& reg = obs::MetricsRegistry::instance();
  static obs::Counter& solves = reg.counter("fixpoint.solves", {{"scheme", "event-warm"}});
  static obs::Counter& sweeps = reg.counter("fixpoint.sweeps", {{"scheme", "event-warm"}});
  static obs::Counter& relaxations =
      reg.counter("fixpoint.edge_relaxations", {{"scheme", "event-warm"}});
  static obs::Histogram& sweeps_hist =
      reg.histogram("fixpoint.sweeps_per_solve", {{"scheme", "event-warm"}});
  solves.inc();
  sweeps.inc(res.sweeps);
  relaxations.inc(res.stats.edge_relaxations);
  sweeps_hist.observe(static_cast<double>(res.sweeps));
  obs::charge_solve(res.stats.edge_relaxations, res.sweeps);
  return res;
}

std::vector<double> compute_arrivals(const Circuit& circuit, const ClockSchedule& schedule,
                                     const std::vector<double>& departure) {
  const TimingView view(circuit);
  const ShiftTable shifts(schedule);
  return compute_arrivals(view, shifts, departure);
}

std::vector<double> compute_arrivals(const TimingView& view, const ShiftTable& shifts,
                                     const std::vector<double>& departure) {
  std::vector<double> arrival(static_cast<size_t>(view.num_elements()));
  for (int i = 0; i < view.num_elements(); ++i) {
    arrival[static_cast<size_t>(i)] = arrival_update(view, shifts, departure, i);
  }
  return arrival;
}

}  // namespace mintc::sta
