#include "sta/fixpoint.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sta/parallel_fixpoint.h"

namespace mintc::sta {

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
  return ParallelFixpoint(view, {.fixpoint = options}).solve(shifts, std::move(initial));
}

FixpointResult warm_departures(const TimingView& view, const ShiftTable& shifts,
                               std::vector<double> departure, const std::vector<int>& seeds,
                               const FixpointOptions& options) {
  const int l = view.num_elements();
  assert(static_cast<int>(departure.size()) == l);
  const StageTimer timer;
  const obs::TraceSpan span("fixpoint.warm", "sta");
  FixpointResult res;
  res.departure = std::move(departure);
  const double bound = divergence_bound(view, shifts);

  std::vector<bool> queued(static_cast<size_t>(l), false);
  std::vector<int> work;
  work.reserve(seeds.size());
  for (const int i : seeds) {
    if (!queued[static_cast<size_t>(i)]) {
      queued[static_cast<size_t>(i)] = true;
      work.push_back(i);
    }
  }
  const std::int64_t max_updates =
      static_cast<std::int64_t>(options.effective_max_sweeps(l)) * std::max(1, l);
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
