#include "sta/parallel_fixpoint.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <mutex>
#include <utility>

#include "graph/scc.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mintc::sta {

namespace {

// What a run of components did: one per inline solve, one per pooled task.
struct Tally {
  std::int64_t updates = 0;
  long relaxations = 0;
  int max_sweeps = 0;
  bool diverged = false;
  bool sweep_limited = false;

  void add(const Tally& o) {
    updates += o.updates;
    relaxations += o.relaxations;
    max_sweeps = std::max(max_sweeps, o.max_sweeps);
    diverged = diverged || o.diverged;
    sweep_limited = sweep_limited || o.sweep_limited;
  }
};

// The solve-wide constants every component reads.
struct Limits {
  double eps;
  double bound;
  int max_sweeps;
};

// The per-component routine — the one place eq. (17) is iterated cold.
// Sweeps component `c`'s members Gauss-Seidel, in ascending index, until no
// member moves by more than eps; a component without a cycle gets one pass.
// Stops at the first value past the divergence bound. Instantiated with
// tracing on and off, so the disabled-tracing loop tracks no residual.
template <bool kTracing>
void solve_component(RelaxRunFn relax, const TimingView& view, const ShiftTable& shifts,
                     const SccPlan& plan, int c, std::vector<double>& d, const Limits& limits,
                     Tally& tally) {
  const int* first = plan.members.data() + plan.member_offset[static_cast<size_t>(c)];
  const int* last = plan.members.data() + plan.member_offset[static_cast<size_t>(c) + 1];
  const bool cyclic = plan.cyclic[static_cast<size_t>(c)] != 0;
  // Locals, not tally fields: the departure stores in the loop would
  // otherwise force the counters back to memory on every member.
  const double eps = limits.eps;
  const double bound = limits.bound;
  std::int64_t updates = 0;
  long relaxations = 0;
  int sweeps = 0;
  bool settled = false;
  bool diverged = false;
  while (!settled && !diverged && sweeps < limits.max_sweeps) {
    bool changed = false;
    [[maybe_unused]] double residual = 0.0;  // max |ΔD| this sweep
    for (const int* m = first; m != last; ++m) {
      const int i = *m;
      ++updates;
      relaxations += static_cast<long>(view.fanin_count(i));
      const double v = relax_element(relax, view, shifts, d, i);
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
  tally.add({updates, relaxations, sweeps, diverged, !settled && !diverged});
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
  pred_count.assign(nc, 0);
  succ_offset.assign(nc + 1, 0);
  const EdgeIndex m = view.num_edges();
  for (EdgeIndex e = 0; e < m; ++e) {
    const int cs = component[at(view.edge_src(e))];
    const int cd = component[at(view.edge_dst(e))];
    if (cs == cd) {
      if (view.edge_src(e) == view.edge_dst(e)) cyclic[at(cs)] = 1;  // self-loop
      continue;
    }
    ++succ_offset[at(cs) + 1];
    ++pred_count[at(cd)];
  }
  for (size_t c = 0; c < nc; ++c) succ_offset[c + 1] += succ_offset[c];
  succ.resize(static_cast<size_t>(succ_offset[nc]));
  std::vector<EdgeIndex> next(succ_offset.begin(), succ_offset.end() - 1);
  for (EdgeIndex e = 0; e < m; ++e) {
    const int cs = component[at(view.edge_src(e))];
    const int cd = component[at(view.edge_dst(e))];
    if (cs != cd) succ[static_cast<size_t>(next[at(cs)]++)] = cd;
  }
  for (int c = 0; c < num_components; ++c) {
    if (pred_count[at(c)] == 0) roots.push_back(c);
  }
}

int SccPlan::num_cyclic() const {
  return static_cast<int>(std::count(cyclic.begin(), cyclic.end(), 1));
}

ParallelFixpoint::ParallelFixpoint(const TimingView& view,
                                   const ParallelFixpointOptions& options)
    : view_(view),
      options_(options),
      kernel_(resolve_relax_kernel(options.kernel)),
      relax_fn_(relax_run_fn(options.kernel)),
      plan_(view) {
  if (options.num_threads > 1) pool_ = std::make_unique<base::ThreadPool>(options.num_threads);
  stats_.sccs = plan_.num_components;
  stats_.nontrivial_sccs = plan_.num_cyclic();
  stats_.threads = std::max(1, options.num_threads);
  stats_.kernel = kernel_;
}

// Everything one pooled solve's tasks share. Plain members are read-only
// once the roots are submitted; the departure vector is written in disjoint
// per-component slices ordered by the predecessor-count release edges; each
// task adds its tally under the mutex once, at its end.
struct ParallelFixpoint::SolveCtx {
  const ShiftTable& shifts;
  std::vector<double>& departure;
  Limits limits;
  bool tracing;
  std::vector<std::atomic<int>> pred;
  std::atomic<std::int64_t> tasks{0};
  std::mutex mu;
  Tally total;  // guarded by mu

  SolveCtx(const ShiftTable& s, std::vector<double>& d, const Limits& lim, bool trace,
           size_t num_components)
      : shifts(s), departure(d), limits(lim), tracing(trace), pred(num_components) {}
};

void ParallelFixpoint::run_chain(SolveCtx& ctx, int comp) {
  // Charge this task's CPU slice to the requesting account (the pointer
  // rides in the propagated trace context). The submitting handler blocks
  // in pool_->wait() while shards run, so shard CPU would otherwise be
  // invisible to its own thread-CPU clock.
  const obs::ThreadCpuTimer cpu(obs::current_cost_account());
  // One span per task (a chain of components), nested under the request
  // span via the propagated trace context; no-op when tracing is off.
  const obs::TraceSpan span("parallel_fixpoint.shard", "sta");
  // Process `comp`, then chase one newly-ready successor inline and fork the
  // surplus. A linear dependency spine (deep pipeline) therefore runs as one
  // task; submissions happen only where the DAG genuinely widens.
  Tally tally;
  for (int c = comp;;) {
    if (ctx.tracing) {
      solve_component<true>(relax_fn_, view_, ctx.shifts, plan_, c, ctx.departure, ctx.limits,
                            tally);
    } else {
      solve_component<false>(relax_fn_, view_, ctx.shifts, plan_, c, ctx.departure, ctx.limits,
                             tally);
    }
    int next = -1;
    const EdgeIndex s_end = plan_.succ_offset[static_cast<size_t>(c) + 1];
    for (EdgeIndex s = plan_.succ_offset[static_cast<size_t>(c)]; s < s_end; ++s) {
      const int t = plan_.succ[static_cast<size_t>(s)];
      // acq_rel: the final decrement observes every upstream component's
      // stores (their decrements released them), and releases our own to
      // whichever thread runs t.
      if (ctx.pred[static_cast<size_t>(t)].fetch_sub(1, std::memory_order_acq_rel) != 1) {
        continue;
      }
      if (next < 0) {
        next = t;
        continue;
      }
      ctx.tasks.fetch_add(1, std::memory_order_relaxed);
      // Forked shards run on arbitrary workers: carry the sampling request's
      // trace context across the hop by value so shard spans keep its id (an
      // inactive context makes the scope a no-op).
      const obs::TraceContext trace = obs::current_trace_context();
      pool_->submit([this, &ctx, t, trace] {
        const obs::TraceContextScope scope(trace);
        run_chain(ctx, t);
      });
    }
    if (next < 0) break;
    c = next;
  }
  const std::lock_guard<std::mutex> lock(ctx.mu);
  ctx.total.add(tally);
}

FixpointResult ParallelFixpoint::solve(const ShiftTable& shifts, std::vector<double> initial) {
  const int l = view_.num_elements();
  assert(static_cast<int>(initial.size()) == l);
  assert(shifts.num_phases() >= view_.num_phases());
  const StageTimer timer;
  const obs::TraceSpan span("fixpoint.solve", "sta");
  const bool tracing = obs::Tracer::instance().enabled();
  FixpointResult res;
  res.departure = std::move(initial);
  const Limits limits{options_.fixpoint.eps, divergence_bound(view_, shifts),
                      options_.fixpoint.effective_max_sweeps(l)};

  Tally total;
  if (!pool_) {
    // Inline: topological order is the release order.
    const auto run = [&]<bool kTracing>() {
      for (int c = 0; c < plan_.num_components; ++c) {
        solve_component<kTracing>(relax_fn_, view_, shifts, plan_, c, res.departure, limits,
                                  total);
      }
    };
    if (tracing) {
      run.template operator()<true>();
    } else {
      run.template operator()<false>();
    }
    stats_.tasks = 0;
    stats_.steals = 0;
  } else {
    SolveCtx ctx(shifts, res.departure, limits, tracing,
                 static_cast<size_t>(plan_.num_components));
    for (int c = 0; c < plan_.num_components; ++c) {
      ctx.pred[static_cast<size_t>(c)].store(plan_.pred_count[static_cast<size_t>(c)],
                                             std::memory_order_relaxed);
    }
    const std::int64_t steals_before = pool_->steal_count();
    ctx.tasks.store(static_cast<std::int64_t>(plan_.roots.size()), std::memory_order_relaxed);
    const obs::TraceContext trace = obs::current_trace_context();
    for (const int root : plan_.roots) {
      pool_->submit([this, &ctx, root, trace] {
        const obs::TraceContextScope scope(trace);
        run_chain(ctx, root);
      });
    }
    pool_->wait();
    total = ctx.total;
    stats_.tasks = ctx.tasks.load(std::memory_order_relaxed);
    stats_.steals = pool_->steal_count() - steals_before;
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
  stats_.max_shard_sweeps = res.sweeps;

  SolveMetrics& metrics = solve_metrics();
  metrics.solves.inc();
  metrics.sweeps.inc(res.sweeps);
  metrics.relaxations.inc(res.stats.edge_relaxations);
  metrics.sweeps_per_solve.observe(static_cast<double>(res.sweeps));
  if (pool_) {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("parallel.solves", {{"kernel", to_string(kernel_)}}).inc();
    reg.counter("parallel.sccs").inc(stats_.sccs);
    reg.counter("parallel.tasks").inc(stats_.tasks);
    reg.counter("parallel.steals").inc(stats_.steals);
    reg.gauge("parallel.threads").set(static_cast<double>(stats_.threads));
    reg.histogram("parallel.shard_sweeps").observe(static_cast<double>(res.sweeps));
  }
  // Attribute the solve's work to the requesting context (serve layer);
  // one pointer test when no account is installed.
  obs::charge_solve(res.stats.edge_relaxations, res.sweeps);
  if (tracing && res.diverged) obs::Tracer::instance().instant("fixpoint.diverged", "sta");
  return res;
}

}  // namespace mintc::sta
