#include "report/slackdb.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "base/approx.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "opt/constraints.h"
#include "sta/session.h"

namespace mintc::report {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Every database calls a path, endpoint or borrow tight within kTightEps;
// its histograms have kHistogramBuckets buckets.
constexpr double kTightEps = 1e-6;
constexpr int kHistogramBuckets = 12;

HistogramSummary summarize(const std::vector<double>& values) {
  HistogramSummary s;
  if (values.empty()) return s;
  double lo = values.front(), hi = values.front();
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::vector<double> bounds;
  if (hi - lo < 1e-12) {
    bounds.push_back(lo);  // degenerate population: one bound, two buckets
  } else {
    for (int k = 1; k <= kHistogramBuckets; ++k) {
      bounds.push_back(lo + (hi - lo) * k / kHistogramBuckets);
    }
  }
  obs::Histogram h(std::move(bounds));
  for (const double v : values) h.observe(v);
  s.bounds = h.bounds();
  s.buckets = h.buckets();
  s.count = h.count();
  s.sum = h.sum();
  s.min = h.min();
  s.max = h.max();
  s.p50 = h.quantile(0.50);
  s.p95 = h.quantile(0.95);
  s.p99 = h.quantile(0.99);
  return s;
}

/// Phase pairs whose active intervals intersect modulo Tc (touching
/// intervals do not count). i < j, 1-based.
std::vector<std::pair<int, int>> overlapping_phase_pairs(const ClockSchedule& schedule,
                                                         double eps) {
  std::vector<std::pair<int, int>> out;
  const double tc = schedule.cycle;
  if (tc <= 0.0) return out;
  const auto wrap = [&](double x) {
    x = std::fmod(x, tc);
    return x < 0.0 ? x + tc : x;
  };
  for (int i = 1; i <= schedule.num_phases(); ++i) {
    for (int j = i + 1; j <= schedule.num_phases(); ++j) {
      const double ti = schedule.T(i), tj = schedule.T(j);
      if (ti <= eps || tj <= eps) continue;
      if (ti >= tc - eps || tj >= tc - eps) {
        out.emplace_back(i, j);  // a phase covering the whole cycle overlaps all
        continue;
      }
      // Circular-interval intersection: j starts inside i's window or vice
      // versa (start offsets measured forward around the cycle).
      const bool ov = wrap(schedule.s(j) - schedule.s(i)) < ti - eps ||
                      wrap(schedule.s(i) - schedule.s(j)) < tj - eps;
      if (ov) out.emplace_back(i, j);
    }
  }
  return out;
}

void build_borrow_chains(SlackDB& db) {
  const auto& origins = db.analysis.provenance.origins;
  const int l = static_cast<int>(db.endpoints.size());
  if (static_cast<int>(origins.size()) != l) return;  // provenance unavailable

  std::vector<int> order;
  for (int i = 0; i < l; ++i) {
    if (db.endpoints[static_cast<size_t>(i)].borrow > kTightEps) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return db.endpoints[static_cast<size_t>(a)].borrow >
           db.endpoints[static_cast<size_t>(b)].borrow;
  });

  std::vector<char> visited(static_cast<size_t>(l), 0);
  for (const int start : order) {
    if (visited[static_cast<size_t>(start)]) continue;
    BorrowChain ch;
    int cur = start;
    while (true) {
      ch.elements.push_back(cur);
      visited[static_cast<size_t>(cur)] = 1;
      const sta::DepartureOrigin& o = origins[static_cast<size_t>(cur)];
      if (o.via_path < 0 || o.from < 0) break;  // departs at its enabling edge
      const EndpointRecord& pred = db.endpoints[static_cast<size_t>(o.from)];
      if (pred.borrow <= kTightEps) break;  // predecessor does not borrow
      if (std::find(ch.elements.begin(), ch.elements.end(), o.from) != ch.elements.end()) {
        ch.paths.push_back(o.via_path);  // the back edge closing the loop
        ch.is_loop = true;
        break;
      }
      if (visited[static_cast<size_t>(o.from)]) break;  // joins an earlier chain
      ch.paths.push_back(o.via_path);
      cur = o.from;
    }
    for (const int e : ch.elements) {
      ch.total_borrow += db.endpoints[static_cast<size_t>(e)].borrow;
    }
    db.borrow_chains.push_back(std::move(ch));
  }
  std::stable_sort(db.borrow_chains.begin(), db.borrow_chains.end(),
                   [](const BorrowChain& a, const BorrowChain& b) {
                     return a.total_borrow > b.total_borrow;
                   });
}

/// Gauges only: each build overwrites them, so the registry describes the
/// latest build. A histogram would keep its first build's data-fitted
/// bounds and pool every later build's endpoints into them.
void mirror_into_registry(const SlackDB& db) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Labels labels{{"circuit", db.circuit}};
  if (!db.corner.empty()) labels.emplace_back("corner", db.corner);
  reg.gauge("report.worst_setup_slack", labels).set(db.worst_setup_slack());
  reg.gauge("report.total_borrow", labels).set(db.total_borrow);
  reg.gauge("report.num_constraints", labels)
      .set(static_cast<double>(db.num_constraints));
}

sta::AnalysisOptions analysis_options(const SlackDbOptions& options) {
  sta::AnalysisOptions aopt;
  aopt.check_hold = options.check_hold;
  aopt.provenance = true;
  return aopt;
}

// One database from `analyze()`, the analysis (+hold, +provenance) of
// `circuit` under `schedule`, timed and traced as one build. Every record is
// a copy of that analysis, never a recomputation, which keeps them
// cross-checkable. The registry mirror is left to the caller, so
// build_signoff can label each corner's database first.
template <typename Analyze>
SlackDB build_unmirrored(const Circuit& circuit, const ClockSchedule& schedule, int nworst,
                         Analyze analyze) {
  const StageTimer timer;
  const obs::TraceSpan span("report.build_slackdb", "report");
  SlackDB db;
  db.circuit = circuit.name();
  db.schedule = schedule;
  db.tc = schedule.cycle;
  db.analysis = analyze();
  db.feasible = db.analysis.feasible;

  db.num_constraints = opt::count_constraints(circuit).rows();
  db.overlapping_phases = overlapping_phase_pairs(schedule, sta::kAnalysisEps);

  const int l = circuit.num_elements();
  db.endpoints.resize(static_cast<size_t>(l));
  std::vector<double> finite_setup, borrows;
  for (int i = 0; i < l; ++i) {
    const Element& el = circuit.element(i);
    const sta::ElementTiming& t = db.analysis.elements[static_cast<size_t>(i)];
    EndpointRecord& r = db.endpoints[static_cast<size_t>(i)];
    r.element = i;
    r.name = el.name;
    r.kind = el.kind;
    r.phase = el.phase;
    r.departure = t.departure;
    r.arrival = t.arrival;
    r.skew = el.skew;
    r.setup_slack = t.setup_slack;
    r.hold_slack = t.hold_slack;
    r.borrow = el.is_latch() ? std::max(0.0, t.departure) : 0.0;
    db.total_borrow += r.borrow;
    db.max_skew = std::max(db.max_skew, el.skew);
    if (std::isfinite(r.setup_slack)) finite_setup.push_back(r.setup_slack);
    if (el.is_latch()) borrows.push_back(r.borrow);
    if (!db.analysis.provenance.empty()) {
      const sta::DepartureOrigin& o =
          db.analysis.provenance.origins[static_cast<size_t>(i)];
      r.origin_path = o.via_path;
      r.origin_from = o.from;
    }
    if (std::isfinite(r.setup_slack) && r.setup_slack <= kTightEps) {
      r.tight.push_back("L1");
    }
    if (r.origin_path >= 0) r.tight.push_back("L2");
    if (el.is_latch() && r.departure <= kTightEps) r.tight.push_back("L3");
  }

  // Per-path propagation slack, read off the provenance pass (it exists
  // exactly when the fixpoint converged); a tight path is a critical segment.
  if (db.analysis.converged) {
    const std::vector<double>& path_slack = db.analysis.provenance.path_slack;
    db.paths.resize(static_cast<size_t>(circuit.num_paths()));
    for (int p = 0; p < circuit.num_paths(); ++p) {
      const CombPath& cp = circuit.path(p);
      PathRecord& r = db.paths[static_cast<size_t>(p)];
      r.path = p;
      r.from = circuit.element(cp.from).name;
      r.to = circuit.element(cp.to).name;
      r.label = cp.label;
      r.delay = cp.delay;
      r.slack = path_slack[static_cast<size_t>(p)];
      r.tight = approx_eq(r.slack, 0.0, kTightEps);
    }
    build_borrow_chains(db);
  }

  // Top-K worst endpoints (by setup slack) and paths (by propagation slack).
  for (int i = 0; i < l; ++i) db.worst_endpoints.push_back(i);
  std::stable_sort(db.worst_endpoints.begin(), db.worst_endpoints.end(), [&](int a, int b) {
    return db.endpoints[static_cast<size_t>(a)].setup_slack <
           db.endpoints[static_cast<size_t>(b)].setup_slack;
  });
  if (static_cast<int>(db.worst_endpoints.size()) > nworst) {
    db.worst_endpoints.resize(static_cast<size_t>(nworst));
  }
  for (const PathRecord& r : db.paths) db.worst_paths.push_back(r.path);
  std::stable_sort(db.worst_paths.begin(), db.worst_paths.end(), [&](int a, int b) {
    return db.paths[static_cast<size_t>(a)].slack < db.paths[static_cast<size_t>(b)].slack;
  });
  if (static_cast<int>(db.worst_paths.size()) > nworst) {
    db.worst_paths.resize(static_cast<size_t>(nworst));
  }

  db.setup_hist = summarize(finite_setup);
  db.borrow_hist = summarize(borrows);

  // Every setup and hold slack loses exactly δ when a uniform extra skew δ
  // is added at every endpoint (σ enters the checks linearly, coefficient
  // -1), so the design's skew tolerance at this schedule is the worst slack
  // itself, floored at zero.
  double worst = db.analysis.worst_setup_slack;
  if (std::isfinite(db.analysis.worst_hold_slack)) {
    worst = std::min(worst, db.analysis.worst_hold_slack);
  }
  db.skew_tolerance = std::isfinite(worst) ? std::max(0.0, worst) : 0.0;

  db.build_seconds = timer.seconds();
  return db;
}

}  // namespace

double SlackDB::worst_setup_slack() const { return analysis.worst_setup_slack; }

double SlackDB::worst_hold_slack() const { return analysis.worst_hold_slack; }

SlackDB build_slackdb(const Circuit& circuit, const ClockSchedule& schedule,
                      const SlackDbOptions& options) {
  SlackDB db = build_unmirrored(circuit, schedule, options.nworst, [&] {
    return sta::check_schedule(circuit, schedule, analysis_options(options));
  });
  mirror_into_registry(db);
  return db;
}

SignoffDB build_signoff(const Circuit& circuit, const ClockSchedule& schedule,
                        const std::vector<sta::Corner>& corners,
                        const SlackDbOptions& options) {
  const obs::TraceSpan span("report.build_signoff", "report");
  SignoffDB db;
  db.corners.resize(corners.size());
  // One session serves every corner: apply_derating scales the pristine
  // circuit with sta::derate's arithmetic, so each corner's analysis is
  // bit-identical to a cold one of the derated copy. Visiting corners in
  // ascending delay_scale makes each step after the first a nondecreasing
  // perturbation, which the session warm-starts from the previous corner's
  // fixpoint. Results land in caller order.
  std::vector<size_t> order(corners.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return corners[a].delay_scale < corners[b].delay_scale;
  });
  sta::AnalysisSession session(circuit, schedule, analysis_options(options));
  for (const size_t idx : order) {
    const sta::Corner& corner = corners[idx];
    session.apply_derating(corner.delay_scale, corner.min_scale);
    db.corners[idx] = build_unmirrored(session.circuit(), schedule, options.nworst,
                                       [&] { return session.analyze(); });
    db.corners[idx].corner = corner.name;
  }
  db.all_pass = true;
  for (const SlackDB& one : db.corners) {
    mirror_into_registry(one);
    db.all_pass = db.all_pass && one.feasible;
  }
  if (db.corners.empty()) return db;

  const size_t l = db.corners.front().endpoints.size();
  db.merged_setup_slack.assign(l, kInf);
  db.merged_setup_corner.assign(l, -1);
  db.merged_hold_slack.assign(l, kInf);
  db.merged_hold_corner.assign(l, -1);
  for (size_t c = 0; c < db.corners.size(); ++c) {
    for (size_t i = 0; i < l; ++i) {
      const EndpointRecord& r = db.corners[c].endpoints[i];
      if (r.setup_slack < db.merged_setup_slack[i]) {
        db.merged_setup_slack[i] = r.setup_slack;
        db.merged_setup_corner[i] = static_cast<int>(c);
      }
      if (r.hold_slack < db.merged_hold_slack[i]) {
        db.merged_hold_slack[i] = r.hold_slack;
        db.merged_hold_corner[i] = static_cast<int>(c);
      }
    }
  }
  for (size_t i = 0; i < l; ++i) db.merged_worst_endpoints.push_back(static_cast<int>(i));
  std::stable_sort(db.merged_worst_endpoints.begin(), db.merged_worst_endpoints.end(),
                   [&](int a, int b) {
                     return db.merged_setup_slack[static_cast<size_t>(a)] <
                            db.merged_setup_slack[static_cast<size_t>(b)];
                   });
  if (static_cast<int>(db.merged_worst_endpoints.size()) > options.nworst) {
    db.merged_worst_endpoints.resize(static_cast<size_t>(options.nworst));
  }
  return db;
}

}  // namespace mintc::report
