#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "ledger.h"
#include "lp/simplex.h"
#include "model/timing_view.h"
#include "obs/export.h"
#include "opt/constraints.h"
#include "opt/graph_solver.h"
#include "opt/mlp.h"
#include "parser/lcs.h"
#include "parser/lct.h"
#include "report/export.h"
#include "report/slackdb.h"
#include "serve/protocol.h"
#include "sta/analysis.h"
#include "sta/corners.h"

namespace svcbench {

using mintc::Circuit;
using mintc::ClockSchedule;
namespace sta = mintc::sta;
namespace opt = mintc::opt;
namespace parser = mintc::parser;
namespace serve = mintc::serve;
namespace report = mintc::report;

namespace {

/// Explicit schedules are stretched by this much past the smallest feasible
/// one, so every design keeps slack and its fixpoint converges quickly.
constexpr double kSlackFactor = 1.25;
/// Raises keep each path within this factor of its base delay, so a long
/// run cannot eat the schedule's slack and push a loop toward divergence.
constexpr double kMaxRaise = 1.10;
/// `min` answers must match the graph solver's Tc* this closely.
constexpr double kMinRelTol = 1e-6;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Time `fn()` as a child span when tracing, else just run it.
template <typename Fn>
decltype(auto) timed(Ledger* ledger, const char* name, int parent, Fn&& fn) {
  if (ledger != nullptr) return ledger->spans.time(name, parent, std::forward<Fn>(fn));
  return fn();
}

/// The analysis options of every service session (serve/service.cpp).
sta::AnalysisOptions service_options() {
  sta::AnalysisOptions o;
  o.check_hold = true;
  return o;
}

std::string fingerprint_of(const sta::AnalysisSession& s) {
  return mintc::obs::hash_hex(s.content_fingerprint());
}

Json request(const char* verb, const std::string& circuit) {
  Json r = Json::object();
  r.set("verb", Json(verb));
  r.set("circuit", Json(circuit));
  return r;
}

/// The `analyze` payload the service promises, rebuilt from an independent
/// check_schedule (field for field what serve renders; the fingerprint is
/// checked separately).
Json expected_payload(const sta::TimingReport& report, const Circuit& circuit, bool detail) {
  Json r = Json::object();
  r.set("feasible", Json(report.feasible));
  r.set("schedule_ok", Json(report.schedule_ok));
  r.set("converged", Json(report.converged));
  r.set("setup_ok", Json(report.setup_ok));
  r.set("hold_ok", Json(report.hold_ok));
  r.set("worst_setup_slack", Json(report.worst_setup_slack));
  r.set("worst_setup_element", Json(static_cast<long>(report.worst_setup_element)));
  if (std::isfinite(report.worst_hold_slack)) {
    r.set("worst_hold_slack", Json(report.worst_hold_slack));
  }
  r.set("worst_hold_element", Json(static_cast<long>(report.worst_hold_element)));
  if (detail) {
    Json elements = Json::array();
    for (size_t i = 0; i < report.elements.size(); ++i) {
      const sta::ElementTiming& et = report.elements[i];
      Json e = Json::object();
      e.set("name", Json(circuit.element(static_cast<int>(i)).name));
      e.set("departure", Json(et.departure));
      if (std::isfinite(et.arrival)) e.set("arrival", Json(et.arrival));
      e.set("setup_slack", Json(et.setup_slack));
      if (std::isfinite(et.hold_slack)) e.set("hold_slack", Json(et.hold_slack));
      elements.push(std::move(e));
    }
    r.set("elements", std::move(elements));
  }
  return r;
}

/// Report payloads carry wall-clock fields (run metadata, SlackDB build
/// time). Blank the number after every "...seconds" key, escaped inside an
/// embedded report string or not, so two renders of one state compare.
std::string scrub_seconds(std::string payload) {
  size_t pos = 0;
  while ((pos = payload.find("seconds", pos)) != std::string::npos) {
    size_t p = pos + 7;
    while (p < payload.size() && (payload[p] == '\\' || payload[p] == '"' ||
                                  payload[p] == ':' || payload[p] == ' ')) {
      ++p;
    }
    const size_t begin = p;
    while (p < payload.size() && (std::isdigit(static_cast<unsigned char>(payload[p])) ||
                                  payload[p] == '.' || payload[p] == 'e' || payload[p] == 'E' ||
                                  payload[p] == '+' || payload[p] == '-')) {
      ++p;
    }
    if (p > begin) payload.replace(begin, p - begin, "0");
    pos += 7;
  }
  return payload;
}

ClockSchedule schedule_from_json(const Json& s) {
  std::vector<double> start, width;
  for (const Json& v : s.get("start").items()) start.push_back(v.as_number());
  for (const Json& v : s.get("width").items()) width.push_back(v.as_number());
  return ClockSchedule(s.get("cycle").as_number(), std::move(start), std::move(width));
}

Circuit synthetic(int phases, int stages, int per_stage, int long_edges, std::uint64_t seed) {
  mintc::circuits::SyntheticParams p;
  p.num_phases = phases;
  p.num_stages = stages;
  p.latches_per_stage = per_stage;
  p.extra_long_edges = long_edges;
  return mintc::circuits::synthetic_circuit(p, seed);
}

/// The smallest cycle time at which the evenly spaced k-phase schedule
/// passes check_schedule, by bisection. Much cheaper than the optimizers on
/// thousands of latches, and all an explicit "schedule with slack" needs.
ClockSchedule smallest_symmetric_schedule(const Circuit& circuit) {
  const auto feasible = [&](double tc) {
    return sta::check_schedule(circuit, mintc::symmetric_schedule(circuit.num_phases(), tc))
        .feasible;
  };
  double hi = 1.0;
  while (!feasible(hi)) hi *= 2.0;
  double lo = hi / 2.0;
  for (int i = 0; i < 12; ++i) {
    const double mid = 0.5 * (lo + hi);
    (feasible(mid) ? hi : lo) = mid;
  }
  return mintc::symmetric_schedule(circuit.num_phases(), hi);
}

/// A design as the harness ships it: .lct text, and for `with_schedule`
/// an explicit schedule with slack (the smallest feasible symmetric one,
/// stretched by kSlackFactor), computed here outside every timed phase.
Design make_design(const std::string& key, const Circuit& circuit, bool with_schedule) {
  Design d;
  d.key = key;
  d.lct = parser::write_circuit(circuit);
  mintc::Expected<Circuit> parsed = parser::parse_circuit(d.lct);
  if (!parsed) {
    std::fprintf(stderr, "svcbench: generated design %s does not parse: %s\n", key.c_str(),
                 parsed.error().to_string().c_str());
    std::exit(2);
  }
  for (const mintc::CombPath& p : parsed->paths()) d.base_delay.push_back(p.delay);
  if (with_schedule) {
    d.lcs = parser::write_schedule(smallest_symmetric_schedule(*parsed).scaled(kSlackFactor));
  }
  return d;
}

/// Raise one path not already in `batch` by 0.5-2% of its base delay.
std::pair<int, double> raise_edit(Design& d, std::mt19937_64& rng,
                                  const std::vector<std::pair<int, double>>& batch) {
  const Circuit& c = d.mirror->circuit();
  std::uniform_int_distribution<int> pick(0, c.num_paths() - 1);
  std::uniform_real_distribution<double> step(0.005, 0.02);
  const auto usable = [&](int p) {
    const size_t i = static_cast<size_t>(p);
    const bool in_batch =
        std::any_of(batch.begin(), batch.end(),
                    [p](const std::pair<int, double>& e) { return e.first == p; });
    return !in_batch && c.path(p).delay < d.base_delay[i] * kMaxRaise;
  };
  int p = pick(rng);
  for (int tries = 0; tries < 16 && !usable(p); ++tries) p = pick(rng);
  const size_t i = static_cast<size_t>(p);
  const double delay =
      std::min(c.path(p).delay + d.base_delay[i] * step(rng), d.base_delay[i] * kMaxRaise);
  d.raised.push_back(p);
  return {p, delay};
}

/// Lower one raised path back to its base delay (a strict decrease, which
/// forces the session's cold fallback); with nothing raised, lower a random
/// path by 1%.
std::pair<int, double> lower_edit(Design& d, std::mt19937_64& rng) {
  const Circuit& c = d.mirror->circuit();
  while (!d.raised.empty()) {
    std::uniform_int_distribution<size_t> pick(0, d.raised.size() - 1);
    const size_t k = pick(rng);
    const int p = d.raised[k];
    d.raised[k] = d.raised.back();
    d.raised.pop_back();
    if (c.path(p).delay > d.base_delay[static_cast<size_t>(p)]) {
      return {p, d.base_delay[static_cast<size_t>(p)]};
    }
  }
  std::uniform_int_distribution<int> pick(0, c.num_paths() - 1);
  const int p = pick(rng);
  return {p, c.path(p).delay * 0.99};
}

}  // namespace

void Gate::fail(const std::string& what) {
  ++failed;
  if (failed <= 20) std::fprintf(stderr, "svcbench: FAILED %s\n", what.c_str());
}

void Verbs::check(const Reply& r, const std::string& err) {
  if (!r.ok()) {
    gate_.fail(r.verb + " returned " + r.envelope.get("error").dump());
  } else if (!err.empty()) {
    gate_.fail(r.verb + ": " + err);
  }
}

void Verbs::finish(Reply& r, const Design& d, bool cacheable, std::string& err) {
  if (ledger_ != nullptr) {
    ledger_->spans.time("serve.parse_request", r.span,
                        [&] { return serve::parse_request(client_.last_line()); });
    ledger_->spans.time("serve.encode_frame", r.span,
                        [&] { return serve::encode_frame(r.envelope); });
    ledger_->count("serve.response_bytes", static_cast<double>(r.bytes));
    if (cacheable && r.ok() && !in_setup_) {
      ledger_->count("serve.cache_hit", r.cached() ? 1.0 : 0.0);
    }
  }
  if (!r.ok() || !err.empty()) return;
  const Json& result = r.result();
  const std::string fp = result.get("fingerprint").as_string();
  if (fp != fingerprint_of(*d.mirror)) {
    err = "fingerprint " + fp + " differs from the mirror's " + fingerprint_of(*d.mirror);
    return;
  }
  if (!cacheable) return;
  // Cache contract: a hit returns the computed payload byte for byte, and a
  // recomputation of a state seen before renders the same payload again.
  std::string payload = result.dump();
  const auto it = answers_.find(client_.last_line());
  if (it != answers_.end() && it->second.first == fp) {
    if (r.cached() ? it->second.second != payload
                   : scrub_seconds(it->second.second) != scrub_seconds(payload)) {
      err = r.cached() ? "cached payload differs from the computed one"
                       : "recomputed payload differs from the earlier one";
    }
  } else if (r.cached()) {
    err = "cache hit on a state the client never saw computed";
  }
  answers_[client_.last_line()] = {fp, std::move(payload)};
}

void Verbs::replay_mlp(const Circuit& circuit, int parent) {
  opt::MlpOptions options;
  options.assume_valid = true;  // as the service calls it
  const double start = now_seconds();
  const mintc::Expected<opt::MlpResult> mlp = opt::minimize_cycle_time(circuit, options);
  const int span = ledger_->spans.add("opt.mlp", start, now_seconds(), parent,
                                      ledger_->spans.request_of(parent));
  (void)mlp;
  const opt::GeneratedLp lp = ledger_->spans.time(
      "opt.generate_lp", span, [&] { return opt::generate_lp(circuit, options.generator); });
  ledger_->count("opt.lp_rows", lp.counts.rows());
  const mintc::lp::Solution sol = ledger_->spans.time(
      "lp.simplex", span, [&] { return mintc::lp::SimplexSolver(options.lp).solve(lp.model); });
  ledger_->count("lp.pivots", sol.stats.phase1_pivots + sol.stats.phase2_pivots);
}

void Verbs::replay_analyze(Design& d, int parent) {
  sta::AnalysisSession& m = *d.mirror;
  const long analyses = m.counters().analyses;
  const long warm_hits = m.counters().warm_hits;
  const double start = now_seconds();
  const sta::TimingReport& rep = m.analyze();
  const double end = now_seconds();
  const bool warm = m.counters().warm_hits > warm_hits;
  const int span = ledger_->spans.add(warm ? "sta.analyze_warm" : "sta.analyze_cold", start, end,
                                      parent, ledger_->spans.request_of(parent));
  ledger_->count("sta.warm", warm ? 1.0 : 0.0);
  ledger_->count("sta.sweeps", rep.stats.sweeps);
  ledger_->count("sta.edge_relaxations", static_cast<double>(rep.stats.edge_relaxations));
  if (analyses == 0) {
    // The session's first analyze builds its TimingView; time that build.
    ledger_->spans.time("model.timing_view_build", span,
                        [&] { return mintc::TimingView(m.circuit()).num_edges(); });
  }
}

namespace {

/// A hit re-parses the stored payload; re-rendering it is part of the
/// response's serve.encode_frame, so only the parse is timed here.
void replay_hit_decode(Ledger* ledger, const Reply& r) {
  const std::string stored = r.result().dump();  // what the cache holds
  ledger->spans.time("serve.hit_decode", r.span, [&] { return serve::parse_json(stored); });
}

/// Tc* against the graph solver, and the returned schedule against
/// check_schedule. In traced runs the graph solve is recorded as a
/// reference span (a root outside the request it checks).
std::string check_min_answer(const Circuit& circuit, const Json& result, Ledger* ledger,
                             int request_span) {
  opt::GraphSolveOptions options;
  options.assume_valid = true;
  const double start = now_seconds();
  const mintc::Expected<opt::GraphSolveResult> ref =
      opt::minimize_cycle_time_graph(circuit, options);
  if (ledger != nullptr) {
    ledger->spans.add("opt.graph_solver", start, now_seconds(), -1,
                      ledger->spans.request_of(request_span));
  }
  if (!ref) return "graph solver failed: " + ref.error().to_string();
  const double tc = result.get("min_cycle").as_number(-1.0);
  if (std::abs(tc - ref->min_cycle) > kMinRelTol * std::max(1.0, std::abs(ref->min_cycle))) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "Tc* %.17g differs from the graph solver's %.17g", tc,
                  ref->min_cycle);
    return buf;
  }
  const sta::TimingReport rep =
      sta::check_schedule(circuit, schedule_from_json(result.get("schedule")));
  if (!rep.feasible) return "the returned schedule fails check_schedule";
  return "";
}

}  // namespace

Reply Verbs::load(Design& d) {
  Json req = request("load", d.key);
  req.set("text", Json(d.lct));
  if (!d.lcs.empty()) req.set("schedule", Json(d.lcs));
  Reply r = client_.send(req);
  d.raised.clear();
  d.mirror.reset();
  const int s = r.span;
  mintc::Expected<Circuit> parsed =
      timed(ledger_, "parser.parse_circuit", s, [&] { return parser::parse_circuit(d.lct); });
  if (ledger_ != nullptr) {
    ledger_->spans.time("model.validate", s, [&] { return parsed->validate(); });
  }
  std::string err;
  ClockSchedule schedule;
  if (!d.lcs.empty()) {
    schedule = timed(ledger_, "parser.parse_schedule", s,
                     [&] { return parser::parse_schedule(d.lcs); })
                   .value();
  } else if (r.ok()) {
    if (ledger_ != nullptr) replay_mlp(*parsed, s);
    schedule = schedule_from_json(r.result().get("schedule"));
    err = check_min_answer(*parsed, r.result(), ledger_, s);
  }
  d.mirror = timed(ledger_, "sta.session_build", s, [&] {
    return std::make_unique<sta::AnalysisSession>(std::move(parsed.value()), schedule,
                                                  service_options());
  });
  if (ledger_ != nullptr) {
    ledger_->spans.time("sta.fingerprint", s, [&] { return d.mirror->content_fingerprint(); });
  }
  finish(r, d, false, err);
  check(r, err);
  return r;
}

Reply Verbs::edit(Design& d, const std::vector<std::pair<int, double>>& delays) {
  const size_t mark = d.mirror->mark();
  Json edits = Json::array();
  for (const auto& [path, delay] : delays) {
    Json e = Json::object();
    e.set("op", Json("set_path_delay"));
    e.set("path", Json(path));
    e.set("delay", Json(delay));
    edits.push(std::move(e));
  }
  Json req = request("edit_batch", d.key);
  req.set("edits", std::move(edits));
  Reply r = client_.send(req);
  std::string err;
  if (r.ok()) {
    timed(ledger_, "sta.edit", r.span, [&] {
      for (const auto& [path, delay] : delays) d.mirror->set_path_delay(path, delay);
    });
    if (ledger_ != nullptr) {
      ledger_->spans.time("model.validate", r.span,
                          [&] { return d.mirror->circuit().validate(); });
      ledger_->spans.time("sta.fingerprint", r.span,
                          [&] { return d.mirror->content_fingerprint(); });
    }
    if (r.result().get("mark").as_long(-1) != static_cast<long>(mark) ||
        r.result().get("applied").as_long(-1) != static_cast<long>(delays.size())) {
      err = "edit_batch mark/applied disagree with the mirror";
    }
  }
  finish(r, d, false, err);
  check(r, err);
  return r;
}

Reply Verbs::undo_to(Design& d, size_t mark) {
  Json req = request("undo", d.key);
  req.set("to", Json(static_cast<long>(mark)));
  Reply r = client_.send(req);
  std::string err;
  if (r.ok()) {
    timed(ledger_, "sta.undo", r.span, [&] { d.mirror->undo_to(mark); });
    if (ledger_ != nullptr) {
      ledger_->spans.time("sta.fingerprint", r.span,
                          [&] { return d.mirror->content_fingerprint(); });
    }
    if (r.result().get("mark").as_long(-1) != static_cast<long>(mark)) {
      err = "undo landed on another mark";
    }
  }
  finish(r, d, false, err);
  check(r, err);
  return r;
}

Reply Verbs::analyze(Design& d, bool detail) {
  Json req = request("analyze", d.key);
  if (detail) req.set("detail", Json(true));
  Reply r = client_.send(req);
  std::string err;
  if (r.ok()) {
    if (ledger_ != nullptr) {
      if (r.cached()) {
        replay_hit_decode(ledger_, r);
      } else {
        replay_analyze(d, r.span);
      }
    }
    const sta::TimingReport ref =
        sta::check_schedule(d.mirror->circuit(), d.mirror->schedule(), service_options());
    const Json expect = expected_payload(ref, d.mirror->circuit(), detail);
    const Json& got = r.result();
    for (const auto& [key, value] : expect.fields()) {
      if (got.get(key) != value) {
        err = "analyze field \"" + key + "\" differs from check_schedule";
        break;
      }
    }
    if (err.empty() && got.size() != expect.size() + 1) err = "analyze payload has extra fields";
  }
  finish(r, d, true, err);
  check(r, err);
  return r;
}

Reply Verbs::report(Design& d, const std::string& format, bool signoff) {
  Json req = request("report", d.key);
  req.set("format", Json(format));
  if (signoff) req.set("signoff", Json(true));
  Reply r = client_.send(req);
  std::string err;
  if (r.ok() && !r.cached()) {
    const Circuit& c = d.mirror->circuit();
    const ClockSchedule& sch = d.mirror->schedule();
    if (ledger_ != nullptr) {
      report::SlackDbOptions options;  // the service's: nworst 10, hold checked
      options.nworst = 10;
      options.check_hold = true;
      const std::string render = "report.render_" + format;
      if (signoff) {
        const report::SignoffDB db = ledger_->spans.time("report.build_signoff", r.span, [&] {
          return report::build_signoff(c, sch, sta::standard_corners(0.1), options);
        });
        ledger_->spans.time(render.c_str(), r.span, [&] {
          return format == "json"    ? report::signoff_json(db)
                 : format == "table" ? report::signoff_table(db)
                                     : report::signoff_html(c, db);
        });
      } else {
        const report::SlackDB db = ledger_->spans.time(
            "report.build_slackdb", r.span, [&] { return report::build_slackdb(c, sch, options); });
        ledger_->spans.time(render.c_str(), r.span, [&] {
          return format == "json"    ? report::report_json(db)
                 : format == "table" ? report::report_table(db)
                                     : report::report_html(c, db);
        });
      }
    }
    if (!signoff) {
      const bool feasible = sta::check_schedule(c, sch, service_options()).feasible;
      if (r.result().get("feasible").as_bool(!feasible) != feasible) {
        err = "report feasibility differs from check_schedule";
      }
    }
  } else if (r.ok() && ledger_ != nullptr) {
    replay_hit_decode(ledger_, r);
  }
  finish(r, d, true, err);
  check(r, err);
  return r;
}

Reply Verbs::sweep(Design& d) {
  constexpr double kFrom = 1.0, kTo = 1.4;
  constexpr long kSteps = 5;
  Json req = request("sweep", d.key);
  req.set("from", Json(kFrom));
  req.set("to", Json(kTo));
  req.set("steps", Json(kSteps));
  Reply r = client_.send(req);
  std::string err;
  if (r.ok() && !r.cached()) {
    sta::AnalysisSession& m = *d.mirror;
    const ClockSchedule base = m.schedule();
    std::vector<double> factors;
    for (long i = 0; i < kSteps; ++i) {
      factors.push_back(kFrom + (kTo - kFrom) * static_cast<double>(i) /
                                    static_cast<double>(kSteps - 1));
    }
    if (ledger_ != nullptr) {
      const size_t mark = m.mark();
      for (const double f : factors) {
        ledger_->spans.time("sta.edit", r.span, [&] { m.set_schedule(base.scaled(f)); });
        replay_analyze(d, r.span);
      }
      ledger_->spans.time("sta.undo", r.span, [&] { m.undo_to(mark); });
    }
    const Json& rows = r.result().get("results");
    if (rows.size() != factors.size()) err = "sweep returned the wrong number of rows";
    for (size_t i = 0; err.empty() && i < factors.size(); ++i) {
      const ClockSchedule scaled = base.scaled(factors[i]);
      const sta::TimingReport ref = sta::check_schedule(m.circuit(), scaled, service_options());
      const Json& row = rows.at(i);
      const bool same =
          row.get("factor") == Json(factors[i]) && row.get("cycle") == Json(scaled.cycle) &&
          row.get("feasible") == Json(ref.feasible) &&
          row.get("converged") == Json(ref.converged) &&
          row.get("worst_setup_slack") == Json(ref.worst_setup_slack) &&
          (!std::isfinite(ref.worst_hold_slack) ||
           row.get("worst_hold_slack") == Json(ref.worst_hold_slack));
      if (!same) err = "sweep row " + std::to_string(i) + " differs from check_schedule";
    }
  } else if (r.ok() && ledger_ != nullptr) {
    replay_hit_decode(ledger_, r);
  }
  finish(r, d, true, err);
  check(r, err);
  return r;
}

Reply Verbs::min(Design& d, bool apply) {
  Json req = request("min", d.key);
  if (apply) req.set("apply", Json(true));
  Reply r = client_.send(req);
  std::string err;
  sta::AnalysisSession& m = *d.mirror;
  if (r.ok() && !r.cached()) {
    if (ledger_ != nullptr) {
      replay_mlp(m.circuit(), r.span);
      ledger_->spans.time("parser.write_schedule", r.span, [&] {
        return parser::write_schedule(schedule_from_json(r.result().get("schedule")));
      });
    }
    err = check_min_answer(m.circuit(), r.result(), ledger_, r.span);
  } else if (r.ok() && ledger_ != nullptr) {
    replay_hit_decode(ledger_, r);
  }
  // The answer's fingerprint names the state before an applied schedule.
  finish(r, d, !apply, err);
  if (r.ok() && apply) {
    timed(ledger_, "sta.edit", r.span,
          [&] { m.set_schedule(schedule_from_json(r.result().get("schedule"))); });
  }
  check(r, err);
  return r;
}

long check_paper_pins(Gate& gate) {
  serve::TimingService service;
  Client client;
  client.attach(&service);
  struct Pin {
    const char* builtin;
    double tc;
  };
  std::string line = "pins:";
  for (const Pin& pin : {Pin{"example1", 110.0}, Pin{"example2", 70.0}, Pin{"gaas", 4.4}}) {
    Json req = request("load", pin.builtin);
    req.set("builtin", Json(pin.builtin));
    const Reply r = client.send(req);
    const double tc = r.result().get("min_cycle").as_number(-1.0);
    const bool ok = r.ok() && std::abs(tc - pin.tc) <= 1e-6;
    if (!ok) gate.fail(std::string("paper pin ") + pin.builtin + " Tc* = " + std::to_string(tc));
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s Tc*=%.6g (paper %.6g, %s)", pin.builtin, tc, pin.tc,
                  ok ? "ok" : "FAILED");
    line += buf;
  }
  const int rows = opt::generate_lp(mintc::circuits::gaas_datapath()).counts.rows();
  if (rows != 91) gate.fail("paper pin GaAs LP rows = " + std::to_string(rows));
  line += " gaas LP rows=" + std::to_string(rows) + (rows == 91 ? " (paper 91, ok)" : " (FAILED)");
  std::printf("%s\n", line.c_str());
  return client.sent() + 1;
}

// -- Workloads ----------------------------------------------------------------

namespace {

/// A designer's ECO loop on one large 3-phase design: small delay edits,
/// each followed by an analyze; see DESIGN.md.
class EcoLoop : public Workload {
 public:
  const char* name() const override { return "eco_loop"; }
  const char* primary_op() const override { return "edit_batch + analyze"; }
  int setup_reps() const override { return 61; }

  std::vector<Design> make_designs() const override {
    std::vector<Design> designs;
    designs.push_back(
        make_design("eco0", synthetic(3, kStages, kPerStage, kLongEdges, 1101), true));
    return designs;
  }

  void reset(std::uint64_t seed) override { rng_.seed(mix(seed, 12)); }

  void step(Verbs& verbs, std::vector<Design>& designs, long it,
            std::vector<double>& primary_ms) override {
    Design& d = designs[0];
    const size_t mark = d.mirror->mark();
    std::vector<std::pair<int, double>> edits;
    if (it % 4 == 3) edits.push_back(lower_edit(d, rng_));
    while (edits.size() < 3) edits.push_back(raise_edit(d, rng_, edits));
    const Reply e = verbs.edit(d, edits);
    const Reply a = verbs.analyze(d, it % 8 == 3);
    primary_ms.push_back((e.seconds + a.seconds) * 1e3);
    // Every 256th iteration the designer abandons the ECO and rewinds to the
    // loaded design, which keeps the undo log (and so the heap) bounded.
    // Undos (decreases, so the next analyze is cold) and detail analyzes
    // both fall on the lowering iterations: three in four primary ops stay
    // on the warm summary path, so p50_ms lands well inside it.
    if (it % 256 == 254) {
      verbs.undo_to(d, 0);
    } else if (it % 16 == 14) {
      verbs.undo_to(d, mark);
    }
  }

 private:
  static constexpr int kStages = 240;  // 240 stages x 25 latches = 6000 latches
  static constexpr int kPerStage = 25;
  static constexpr int kLongEdges = 240;
  std::mt19937_64 rng_;
};

/// Many readers of signoff views over four mid-size designs, with about one
/// edit per ten reads; see DESIGN.md.
class DashboardRead : public Workload {
 public:
  const char* name() const override { return "dashboard_read"; }
  const char* primary_op() const override {
    return "read (analyze detail, report json/table/html, report signoff, sweep)";
  }
  int setup_reps() const override { return 41; }

  std::vector<Design> make_designs() const override {
    struct Shape {
      int phases, stages, per_stage;
    };
    // 256, 324, 384 and 504 latches.
    const Shape shapes[] = {{2, 32, 8}, {3, 36, 9}, {2, 48, 8}, {3, 63, 8}};
    std::vector<Design> designs;
    for (int i = 0; i < 4; ++i) {
      const Shape& s = shapes[i];
      designs.push_back(make_design("dash" + std::to_string(i),
                                    synthetic(s.phases, s.stages, s.per_stage, 8,
                                              2101 + static_cast<std::uint64_t>(i)),
                                    true));
    }
    return designs;
  }

  void reset(std::uint64_t seed) override {
    rng_.seed(mix(seed, 22));
    valid_.assign(4, -1);
    std::iota(kinds_.begin(), kinds_.end(), 0);
  }

  // One round: an edit on design it % 4, the read that recomputes one of
  // its views (a miss), then nine reads of views still cached (hits). The
  // six view kinds are dealt in a fresh shuffled order every six rounds.
  void step(Verbs& verbs, std::vector<Design>& designs, long it,
            std::vector<double>& primary_ms) override {
    const size_t di = static_cast<size_t>(it % 4);
    Design& d = designs[di];
    // Every 32nd change to a design rewinds it to the loaded state instead
    // of editing it, which keeps the undo logs (and so the heap) bounded.
    if ((it / 4) % 32 == 31) {
      verbs.undo_to(d, 0);
    } else {
      std::vector<std::pair<int, double>> edits;
      if ((it / 4) % 3 == 2) edits.push_back(lower_edit(d, rng_));
      while (edits.size() < 2) edits.push_back(raise_edit(d, rng_, edits));
      verbs.edit(d, edits);
    }

    if (it % 6 == 0) std::shuffle(kinds_.begin(), kinds_.end(), rng_);
    valid_[di] = kinds_[static_cast<size_t>(it % 6)];
    primary_ms.push_back(read(verbs, d, valid_[di]) * 1e3);

    std::vector<size_t> cached;
    for (size_t j = 0; j < valid_.size(); ++j) {
      if (valid_[j] >= 0) cached.push_back(j);
    }
    std::uniform_int_distribution<size_t> pick(0, cached.size() - 1);
    for (int k = 0; k < 9; ++k) {
      const size_t j = cached[pick(rng_)];
      primary_ms.push_back(read(verbs, designs[j], valid_[j]) * 1e3);
    }
  }

 private:
  static double read(Verbs& verbs, Design& d, int kind) {
    switch (kind) {
      case 0: return verbs.analyze(d, true).seconds;
      case 1: return verbs.report(d, "json", false).seconds;
      case 2: return verbs.report(d, "table", false).seconds;
      case 3: return verbs.report(d, "html", false).seconds;
      case 4: return verbs.report(d, "json", true).seconds;
      default: return verbs.sweep(d).seconds;
    }
  }

  std::mt19937_64 rng_;
  std::vector<int> valid_;          // per design: the view kind still cached
  std::vector<int> kinds_ = std::vector<int>(6);
};

/// Clock-schedule design on six small designs loaded without a schedule:
/// one delay edit, then `min`; see DESIGN.md.
class ScheduleDesign : public Workload {
 public:
  const char* name() const override { return "schedule_design"; }
  const char* primary_op() const override { return "min"; }
  int setup_reps() const override { return 21; }

  std::vector<Design> make_designs() const override {
    struct Shape {
      int phases, stages;
    };
    // 32, 48, 56, 72, 80 and 96 latches (4 per stage).
    const Shape shapes[] = {{2, 8}, {3, 12}, {2, 14}, {3, 18}, {2, 20}, {3, 24}};
    std::vector<Design> designs;
    for (int i = 0; i < 6; ++i) {
      designs.push_back(make_design(
          "sd" + std::to_string(i),
          synthetic(shapes[i].phases, shapes[i].stages, 4, 4,
                    3101 + static_cast<std::uint64_t>(i)),
          false));
    }
    return designs;
  }

  void reset(std::uint64_t seed) override {
    rng_.seed(mix(seed, 32));
    order_ = {0, 1, 2, 2, 3, 3, 4, 4, 4, 5};
  }

  // Designs are visited in shuffled blocks of ten weighted so that the
  // median `min` falls mid-way through the 72-latch design's calls and the
  // 95th percentile mid-way through the 96-latch design's (a tenth of all
  // calls), never on the boundary between two designs' costs.
  void step(Verbs& verbs, std::vector<Design>& designs, long it,
            std::vector<double>& primary_ms) override {
    const size_t slot = static_cast<size_t>(it % 10);
    if (slot == 0) std::shuffle(order_.begin(), order_.end(), rng_);
    Design& d = designs[static_cast<size_t>(order_[slot])];
    std::uniform_int_distribution<int> pick(0, d.mirror->circuit().num_paths() - 1);
    std::uniform_real_distribution<double> scale(0.9, 1.1);
    const int p = pick(rng_);
    verbs.edit(d, {{p, d.base_delay[static_cast<size_t>(p)] * scale(rng_)}});
    const bool apply = it % 4 == 3;
    primary_ms.push_back(verbs.min(d, apply).seconds * 1e3);
    if (apply) verbs.analyze(d, false);
  }

 private:
  std::mt19937_64 rng_;
  std::vector<int> order_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "eco_loop") return std::make_unique<EcoLoop>();
  if (name == "dashboard_read") return std::make_unique<DashboardRead>();
  if (name == "schedule_design") return std::make_unique<ScheduleDesign>();
  return nullptr;
}

}  // namespace svcbench
