#include "serve/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "base/log.h"

#include "circuits/appendix_fig1.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "obs/cost.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "opt/graph_solver.h"
#include "parser/lcs.h"
#include "parser/lct.h"
#include "report/export.h"
#include "report/slackdb.h"
#include "serve/protocol.h"
#include "sta/corners.h"

namespace mintc::serve {

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::instance(); }

/// Wide powers-of-4 bounds for per-request engine-work counts
/// (serve.relaxations): 1 .. 64M covers a cache hit (0) through the largest
/// sweep request without wasting buckets on microsecond-style resolution.
std::vector<double> work_count_buckets() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 67108864.0; b *= 4.0) bounds.push_back(b);
  return bounds;
}

/// Rough warm-session footprint for the pool's byte budget: the Circuit,
/// the flattened TimingView (per-edge constants dominate) and the report
/// vectors. Order-of-magnitude is all eviction needs.
size_t estimate_session_bytes(const Circuit& circuit) {
  const size_t elements = static_cast<size_t>(circuit.num_elements());
  size_t labels = 0;
  for (const CombPath& p : circuit.paths()) labels += p.label.capacity();
  return 4096 + 256 * elements + 192 * static_cast<size_t>(circuit.num_paths()) + labels;
}

/// Required numeric field; nullopt (with `err` filled) when absent/not a
/// number.
std::optional<double> require_num(const Json& obj, std::string_view key, std::string& err) {
  const Json& v = obj.get(key);
  if (!v.is_number()) {
    err = "missing numeric field \"" + std::string(key) + "\"";
    return std::nullopt;
  }
  return v.as_number();
}

std::optional<Circuit> builtin_circuit(const std::string& name, const Json& req,
                                       std::string& err) {
  if (name == "example1") return circuits::example1(req.num_or("delta41", 80.0));
  if (name == "example2") return circuits::example2();
  if (name == "gaas") return circuits::gaas_datapath();
  if (name == "appendix") return circuits::appendix_fig1();
  err = "unknown builtin circuit \"" + name +
        "\" (known: example1, example2, gaas, appendix)";
  return std::nullopt;
}

/// A schedule as the JSON object {"cycle", "start", "width"}: the one
/// writer of a schedule in an answer, `load`'s and `min`'s.
void write_schedule_json(std::string& out, const ClockSchedule& schedule) {
  const auto write_list = [&out](const std::vector<double>& values) {
    out += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      if (i) out += ',';
      json_double_to(out, values[i]);
    }
    out += ']';
  };
  out += "{\"cycle\":";
  json_double_to(out, schedule.cycle);
  out += ",\"start\":";
  write_list(schedule.start);
  out += ",\"width\":";
  write_list(schedule.width);
  out += '}';
}

/// Row i of a `detail` analyze: the bytes a Json {name, departure,
/// arrival?, setup_slack, hold_slack?} object dumps to, after a comma unless
/// it is the first row. Non-finite per-element values (arrival with no
/// fanin, unchecked hold slack) are omitted rather than clamped — JSON has
/// no infinities and the soak's bit-identity gate compares only what is
/// emitted. The one writer of a row's bytes: they depend on nothing but the
/// name and the four values.
void write_row(std::string& out, size_t i, const std::string& name,
               const sta::ElementTiming& et) {
  out += i ? ",{\"name\":\"" : "{\"name\":\"";
  obs::json_escape_to(out, name);
  out += "\",\"departure\":";
  json_double_to(out, et.departure);
  if (std::isfinite(et.arrival)) {
    out += ",\"arrival\":";
    json_double_to(out, et.arrival);
  }
  out += ",\"setup_slack\":";
  json_double_to(out, et.setup_slack);
  if (std::isfinite(et.hold_slack)) {
    out += ",\"hold_slack\":";
    json_double_to(out, et.hold_slack);
  }
  out += '}';
}

/// A row's four values as bit patterns, the only inputs of its bytes but
/// its name.
std::array<std::uint64_t, 4> row_bits(const sta::ElementTiming& et) {
  return {std::bit_cast<std::uint64_t>(et.departure), std::bit_cast<std::uint64_t>(et.arrival),
          std::bit_cast<std::uint64_t>(et.setup_slack),
          std::bit_cast<std::uint64_t>(et.hold_slack)};
}

/// Summarize a TimingReport as a result payload; a `detail` analyze
/// appends its rows (render_detail).
Json report_payload(const sta::TimingReport& report) {
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
  return r;
}

std::string join_problems(const std::vector<std::string>& problems) {
  std::string msg;
  for (const std::string& p : problems) {
    if (!msg.empty()) msg += "; ";
    msg += p;
  }
  return msg;
}

/// Record a commit at `mark`. Past kUndoCommits, the oldest commit is
/// forgotten, and with it the undo records only it could reach.
void commit(sta::AnalysisSession& s, std::deque<size_t>& commits, size_t mark) {
  commits.push_back(mark);
  if (commits.size() > TimingService::kUndoCommits) {
    commits.pop_front();
    s.forget_before(commits.front());
  }
}

}  // namespace

TimingService::TimingService(ServiceConfig config)
    : cache_(config.cache_bytes),
      config_(config),
      requests_metric_(registry().counter("serve.requests")),
      errors_metric_(registry().counter("serve.errors")),
      session_evictions_metric_(registry().counter("session.evictions")),
      slow_requests_metric_(registry().counter("serve.slow_requests")),
      sessions_metric_(registry().gauge("session.count")),
      session_bytes_metric_(registry().gauge("session.bytes")),
      inflight_metric_(registry().gauge("serve.inflight")),
      cache_bytes_metric_(registry().gauge("cache.bytes")),
      cache_entries_metric_(registry().gauge("cache.entries")),
      uptime_metric_(registry().gauge("server.uptime_seconds")),
      latency_metric_(
          registry().histogram("serve.latency_us", {}, obs::latency_buckets_us())),
      cpu_metric_(registry().histogram("serve.cpu_us", {}, obs::latency_buckets_us())),
      relaxations_metric_(
          registry().histogram("serve.relaxations", {}, work_count_buckets())),
      detail_rows_rendered_metric_(registry().counter("serve.detail_rows_rendered")),
      detail_rows_reused_metric_(registry().counter("serve.detail_rows_reused")),
      history_(kHistoryCapacity) {
  // Info-gauge idiom: constant 1 with the identity in the labels, so any
  // scrape can join build identity against the numeric series.
  const obs::BuildInfo& build = obs::build_info();
  registry()
      .gauge("build_info", {{"version", build.version},
                            {"git", build.git},
                            {"compiler", build.compiler}})
      .set(1.0);
  if (!config_.audit_path.empty()) {
    audit_ = std::make_unique<AuditLog>(config_.audit_path, config_.audit_rotate_bytes);
  }
}

double TimingService::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

/// A request in flight: its record and cost account, and the clock that
/// times its stages. The clock reads steady_clock once per stage boundary,
/// and not at all when telemetry is off. Telemetry's own bookkeeping (the
/// in-flight gauge and the thread-CPU clock, here and in finish()) sits
/// outside the window the stages split, which opens after it here and
/// closes at the last boundary.
struct TimingService::Pending {
  using Clock = std::chrono::steady_clock;

  explicit Pending(TimingService& service) : timed(service.config_.telemetry) {
    if (!timed) return;
    service.inflight_metric_.set(static_cast<double>(
        service.inflight_.fetch_add(1, std::memory_order_relaxed) + 1));
    cpu.emplace(&account);
    start = boundary = Clock::now();
  }

  /// End the stage that began at the last boundary and add its time to
  /// `stage`.
  void lap(double& stage) {
    if (!timed) return;
    const Clock::time_point now = Clock::now();
    stage += std::chrono::duration<double, std::micro>(now - boundary).count();
    boundary = now;
  }
  /// Start a stage: move the boundary without charging the time since the
  /// last one.
  void mark() {
    if (timed) boundary = Clock::now();
  }
  /// End a session read's `work` where its engine step ends. Building the
  /// answer from the engine's result is then `render`.
  void engine_done() { lap(record.stages.work); }

  const bool timed;
  obs::CostAccount account;
  std::optional<obs::ThreadCpuTimer> cpu;  // charges `account` when reset
  Clock::time_point start, boundary;
  RequestRecord record;
};

std::string TimingService::handle_line(std::string_view line) {
  Pending p(*this);
  const Expected<Json> request = parse_request(line, config_.max_frame_bytes);
  p.lap(p.record.stages.parse_request);
  const Json response = request ? answer(*request, p) : error_response(Json(), request.error());
  std::string frame = encode_frame(response);
  // Everything since the last stage boundary: the envelope around the
  // verb's answer, its echoes, and the bytes.
  p.lap(p.record.stages.encode_frame);
  finish(p, response);
  return frame;
}

Json TimingService::handle(const Json& request) {
  // handle_line always answers with one well-formed frame.
  return parse_json(handle_line(request.dump())).value();
}

Json TimingService::answer(const Json& request, Pending& p) {
  const Json& id = request.get("id");
  RequestRecord& record = p.record;
  record.verb = request.get("verb").as_string();
  record.circuit = request.str_or("circuit");

  // A malformed trace field rejects the request: a client's sampling config
  // must not rot into silent untraced traffic.
  Expected<TraceField> trace = parse_trace_field(request);
  p.lap(record.stages.parse_request);  // the envelope fields are part of the parse
  if (!trace) return error_response(id, trace.error());
  if (trace->sampled) record.trace = trace_id_hex(trace->id);

  // When telemetry is on, EVERY request carries a cost account, installed
  // on the handler's thread for its whole extent (the engines run on this
  // thread), so the serve.cpu_us / serve.relaxations histograms and the
  // audit log see full traffic. The account outlives the scope.
  const obs::CostScope cost_scope(config_.telemetry ? &p.account : nullptr);

  Json response = dispatch(request, id, record.verb, p);

  // The echo is protocol, not telemetry: a sampled id comes back even when
  // config_.telemetry is off (the client's accounting must not depend on a
  // server-side tuning knob).
  if (!record.trace.empty()) response.set("trace", Json(record.trace));

  // Opt-in cost echo, always at the ENVELOPE level — cached result payloads
  // stay byte-identical whether or not attribution is requested. Its CPU
  // time is the handler thread's so far.
  if (request.bool_or("cost", false)) {
    Json cost = Json::object();
    cost.set("cpu_us", Json(static_cast<long>(p.cpu ? p.cpu->elapsed_us() : 0)));
    cost.set("relaxations", Json(static_cast<long>(p.account.relaxations)));
    cost.set("sweeps", Json(static_cast<long>(p.account.sweeps)));
    cost.set("solves", Json(static_cast<long>(p.account.solves)));
    response.set("cost", std::move(cost));
  }
  return response;
}

void TimingService::finish(Pending& p, const Json& response) {
  if (!config_.telemetry) return;
  p.cpu.reset();  // charges the handler thread's CPU time to the account
  inflight_metric_.set(
      static_cast<double>(inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
  RequestRecord& record = p.record;
  record.t_seconds = std::chrono::duration<double>(p.boundary - start_).count();
  record.wall_us = std::chrono::duration<double, std::micro>(p.boundary - p.start).count();
  record.ok = response.get("ok").as_bool(false);
  record.cached = response.get("cached").as_bool(false);
  record.cpu_us = p.account.cpu_us;
  record.relaxations = p.account.relaxations;
  record.sweeps = p.account.sweeps;
  record.solves = p.account.solves;

  requests_metric_.inc();
  if (!record.ok) errors_metric_.inc();
  latency_metric_.observe(record.wall_us);
  cpu_metric_.observe(static_cast<double>(record.cpu_us));
  relaxations_metric_.observe(static_cast<double>(record.relaxations));
  if (audit_) audit_->append(record);
  if (config_.slow_request_us > 0 &&
      record.wall_us >= static_cast<double>(config_.slow_request_us)) {
    slow_requests_metric_.inc();
    std::string stages;
    char buf[64];
    for (const auto& [name, us] : record.stages.named()) {
      std::snprintf(buf, sizeof buf, " %s=%.1f", name, us);
      stages += buf;
    }
    log_warn() << "serve: slow request verb=" << record.verb
               << " circuit=" << (record.circuit.empty() ? "-" : record.circuit)
               << " us=" << record.wall_us << stages << " cpu_us=" << record.cpu_us
               << " relaxations=" << record.relaxations
               << " trace=" << (record.trace.empty() ? "-" : record.trace);
  }
  if (!record.trace.empty()) {
    record.tid = obs::thread_trace_id();
    const std::lock_guard<std::mutex> lk(traced_mu_);
    if (traced_.size() == kTraceRecords) {
      traced_.pop_front();
      ++traced_dropped_;
    }
    traced_.push_back(record);
  }

  // Insertion sort into the top-K: the vector is tiny (<= kSlowTopK) and
  // almost every request falls off the end immediately.
  const std::lock_guard<std::mutex> lk(slow_mu_);
  if (slow_.size() < kSlowTopK || record.wall_us > slow_.back().wall_us) {
    const auto pos = std::upper_bound(
        slow_.begin(), slow_.end(), record.wall_us,
        [](double us, const RequestRecord& r) { return us > r.wall_us; });
    slow_.insert(pos, std::move(record));
    if (slow_.size() > kSlowTopK) slow_.pop_back();
  }
}

std::vector<RequestRecord> TimingService::slow_requests() const {
  const std::lock_guard<std::mutex> lk(slow_mu_);
  return slow_;
}

Json TimingService::dispatch(const Json& request, const Json& id, const std::string& verb,
                             Pending& p) {
  // The verb table. A plain verb answers in full; a session verb's handler
  // checks its parameters and hands its work to run_session_verb.
  struct Row {
    std::string_view verb;
    Expected<Json> (TimingService::*plain)(const Json&);
    Expected<SessionWork> (TimingService::*session)(const Json&);
  };
  static constexpr Row kVerbs[] = {
      {"load", &TimingService::verb_load, nullptr},
      {"edit_batch", nullptr, &TimingService::verb_edit_batch},
      {"analyze", nullptr, &TimingService::verb_analyze},
      {"report", nullptr, &TimingService::verb_report},
      {"sweep", nullptr, &TimingService::verb_sweep},
      {"undo", nullptr, &TimingService::verb_undo},
      {"min", nullptr, &TimingService::verb_min},
      {"stats", &TimingService::verb_stats, nullptr},
      {"metrics", &TimingService::verb_metrics, nullptr},
      {"trace", &TimingService::verb_trace, nullptr},
      {"status", &TimingService::verb_status, nullptr},
  };
  for (const Row& row : kVerbs) {
    if (row.verb != verb) continue;
    if (row.session != nullptr) return run_session_verb(request, id, verb, row.session, p);
    p.mark();
    Expected<Json> result = (this->*row.plain)(request);
    p.lap(p.record.stages.work);
    return result ? ok_response(id, std::move(*result), false)
                  : error_response(id, result.error());
  }
  return error_response(id, "unknown_verb", "unknown verb \"" + verb + "\"");
}

Json TimingService::run_session_verb(const Json& request, const Json& id,
                                     const std::string& verb,
                                     Expected<SessionWork> (TimingService::*bind)(const Json&),
                                     Pending& p) {
  const std::string key = request.str_or("circuit");
  const std::shared_ptr<Entry> entry = find_entry(key);
  if (!entry) {
    return error_response(id, "not_loaded", "circuit \"" + key + "\" is not loaded");
  }
  const Expected<SessionWork> work = (this->*bind)(request);
  if (!work) return error_response(id, work.error());

  StageTimes& stages = p.record.stages;
  p.mark();
  bool cached = false;
  Expected<Json> answer = entry->session->with([&](sta::AnalysisSession& s) -> Expected<Json> {
    p.lap(stages.lock_wait);
    // A read's answer is tagged with the generation it was computed at (a
    // sweep's edits and undo move the session past it).
    const std::uint64_t generation = s.generation();
    std::uint64_t cache_key = 0;
    if (!work->write) {
      cache_key =
          obs::Fnv1a().u64(s.content_fingerprint()).str(verb).u64(work->params).digest();
      ResultCache::Value hit = cache_.get(cache_key);
      p.lap(stages.lookup);
      if (hit) {
        // The stored bytes are the first answer as it went on the wire; the
        // frame splices them in as they are.
        cached = true;
        return Json::raw(std::move(hit));
      }
    }
    // A read's work ends at its engine step (Pending::engine_done); what
    // follows is render. A detail analyze's and a min's answer come back
    // rendered.
    Expected<Json> result = work->run(s, *entry, p);
    ResultCache::Value rendered = result ? result->raw_text() : nullptr;
    if (result && !rendered && !result->has("fingerprint")) {
      result->set("fingerprint", Json(obs::hash_hex(s.content_fingerprint())));
    }
    if (result && work->write) cache_.invalidate(key, s.generation());
    if (!result || work->write) {
      p.lap(stages.work);
      return result;
    }
    // A read is rendered once: the cache and the frame share its bytes.
    // The tree is released first.
    if (!rendered) rendered = std::make_shared<const std::string>(result->dump());
    *result = Json();
    // A session keeps a detail answer only if the cache admits it.
    if (!cache_.put(cache_key, key, generation, rendered) && entry->detail.answer == rendered) {
      entry->detail = DetailRows();
    }
    p.lap(stages.render);
    return Json::raw(std::move(rendered));
  });
  return answer ? ok_response(id, std::move(*answer), cached)
                : error_response(id, answer.error());
}

void TimingService::record_history_sample() {
  const double t = uptime_seconds();
  const long requests = requests_metric_.value();
  // Rate since the previous tick (the ring holds rates, not monotone
  // totals, so the sparklines read directly as req/s).
  double rps = 0.0;
  if (t > last_history_t_ && requests >= last_history_requests_) {
    rps = static_cast<double>(requests - last_history_requests_) / (t - last_history_t_);
  }
  last_history_t_ = t;
  last_history_requests_ = requests;

  const ResultCache::Stats cs = cache_.stats();
  obs::HistoryRing::Sample sample;
  sample.t_seconds = t;
  sample.values = {
      {"rps", rps},
      {"latency_p50_us", latency_metric_.quantile(0.50)},
      {"latency_p95_us", latency_metric_.quantile(0.95)},
      {"cpu_p50_us", cpu_metric_.quantile(0.50)},
      {"inflight", static_cast<double>(inflight_.load(std::memory_order_relaxed))},
      {"cache_bytes", static_cast<double>(cs.bytes)},
      {"sessions", static_cast<double>(pool_stats().sessions)},
  };
  history_.record(std::move(sample));
}

Expected<Json> TimingService::verb_load(const Json& req) {
  const std::string key = req.str_or("circuit");
  if (key.empty()) {
    return make_error(ErrorKind::kInvalidArgument, "load needs a non-empty \"circuit\" key");
  }

  std::optional<Circuit> circuit;
  if (req.get("text").is_string()) {
    Expected<Circuit> parsed = parser::parse_circuit(req.get("text").as_string());
    if (!parsed) return parsed.error();
    circuit.emplace(std::move(parsed.value()));
  } else if (req.get("builtin").is_string()) {
    std::string err;
    circuit = builtin_circuit(req.get("builtin").as_string(), req, err);
    if (!circuit) return make_error(ErrorKind::kInvalidArgument, std::move(err));
  } else {
    return make_error(ErrorKind::kInvalidArgument,
                      "load needs either \"text\" (.lct) or \"builtin\"");
  }

  const std::vector<std::string> problems = circuit->validate();
  if (!problems.empty()) return make_error(ErrorKind::kInvalidCircuit, join_problems(problems));

  ClockSchedule schedule;
  double min_cycle = 0.0;
  bool optimized = false;
  if (req.get("schedule").is_string()) {
    Expected<ClockSchedule> parsed = parser::parse_schedule(req.get("schedule").as_string());
    if (!parsed) return parsed.error();
    if (parsed->num_phases() != circuit->num_phases()) {
      return make_error(ErrorKind::kInvalidArgument,
                        "schedule has " + std::to_string(parsed->num_phases()) +
                            " phases, circuit has " + std::to_string(circuit->num_phases()));
    }
    schedule = std::move(parsed.value());
  } else {
    opt::GraphSolveOptions exact;
    exact.assume_valid = true;  // just validated above
    Expected<opt::ExactSolveResult> result = opt::minimize_cycle_time_exact(*circuit, exact);
    if (!result) return result.error();
    schedule = result->schedule;
    min_cycle = result->min_cycle;
    optimized = true;
  }

  sta::AnalysisOptions options;
  options.check_hold = true;
  const size_t bytes = estimate_session_bytes(*circuit);
  auto session = std::make_unique<sta::SharedSession>(std::move(*circuit), schedule, options);

  Json result = Json::object();
  session->with([&](sta::AnalysisSession& s) {
    result.set("circuit", Json(key));
    result.set("elements", Json(static_cast<long>(s.circuit().num_elements())));
    result.set("paths", Json(static_cast<long>(s.circuit().num_paths())));
    result.set("phases", Json(static_cast<long>(s.circuit().num_phases())));
    result.set("generation", Json(s.generation()));
    result.set("fingerprint", Json(obs::hash_hex(s.content_fingerprint())));
    std::string schedule_text;
    write_schedule_json(schedule_text, s.schedule());
    result.set("schedule", Json::raw(std::move(schedule_text)));
  });
  if (optimized) result.set("min_cycle", Json(min_cycle));

  install_entry(key, std::move(session), bytes);
  // Reload = new content under the old key: drop every cached response for
  // it regardless of the (restarted) generation counter.
  cache_.invalidate(key, ~0ull);
  return result;
}

Expected<TimingService::SessionWork> TimingService::verb_edit_batch(const Json& req) {
  const Json& edits = req.get("edits");
  if (!edits.is_array()) {
    return make_error(ErrorKind::kInvalidArgument, "edit_batch needs an \"edits\" array");
  }
  // `edits` lives in the request, which outlives the work.
  return SessionWork{
      .write = true,
      .run = [&edits](sta::AnalysisSession& s, Entry& entry, Pending&) -> Expected<Json> {
        const size_t mark = s.mark();
        // Every edit is validated against the EVOLVING state before it is
        // applied — the Circuit setters assert on invalid values, and an
        // assert must never be reachable from the wire. Any failure rolls
        // the whole batch back: batches are atomic.
        for (size_t i = 0; i < edits.size(); ++i) {
          const Json& e = edits.at(i);
          const std::string err = e.is_object() ? apply_edit(s, e) : "edit is not an object";
          if (!err.empty()) {
            s.undo_to(mark);
            return make_error(ErrorKind::kInvalidArgument,
                              "edit " + std::to_string(i) + ": " + err);
          }
        }
        // The state at `mark` passed validate(): load checks the whole
        // circuit, every committed batch passed this check, and undo lands
        // only on committed states. So only what the batch touched can be
        // invalid, and validate_since checks just that (the whole circuit
        // after a removal).
        const std::vector<std::string> problems = s.validate_since(mark);
        if (!problems.empty()) {
          s.undo_to(mark);
          return make_error(ErrorKind::kInvalidArgument,
                            "batch leaves the circuit invalid: " + join_problems(problems));
        }
        if (s.mark() > mark) commit(s, entry.commits, mark);
        Json result = Json::object();
        result.set("applied", Json(static_cast<long>(edits.size())));
        result.set("mark", Json(static_cast<long>(mark)));
        result.set("generation", Json(s.generation()));
        return result;
      }};
}

std::string TimingService::apply_edit(sta::AnalysisSession& s, const Json& e) {
  const std::string op = e.str_or("op");
  const Circuit& c = s.circuit();

  const auto path_index = [&](std::string& err) -> int {
    const long p = e.long_or("path", -1);
    if (p < 0 || p >= c.num_paths()) {
      err = "path index " + std::to_string(p) + " out of range [0, " +
            std::to_string(c.num_paths()) + ")";
      return -1;
    }
    return static_cast<int>(p);
  };
  const auto element_index = [&](std::string& err) -> int {
    const long i = e.long_or("element", -1);
    if (i < 0 || i >= c.num_elements()) {
      err = "element index " + std::to_string(i) + " out of range [0, " +
            std::to_string(c.num_elements()) + ")";
      return -1;
    }
    return static_cast<int>(i);
  };
  const auto finite_nonneg = [](double v, const char* what, std::string& err) {
    if (!std::isfinite(v) || v < 0.0) {
      err = std::string(what) + " must be finite and nonnegative";
      return false;
    }
    return true;
  };

  std::string err;
  if (op == "set_path_delay") {
    const int p = path_index(err);
    const std::optional<double> d = err.empty() ? require_num(e, "delay", err) : std::nullopt;
    if (!err.empty()) return err;
    if (!finite_nonneg(*d, "delay", err)) return err;
    if (*d < c.path(p).min_delay) return "delay below the path's min delay";
    s.set_path_delay(p, *d);
  } else if (op == "set_path_min_delay") {
    const int p = path_index(err);
    const std::optional<double> d = err.empty() ? require_num(e, "min", err) : std::nullopt;
    if (!err.empty()) return err;
    if (!finite_nonneg(*d, "min delay", err)) return err;
    if (*d > c.path(p).delay) return "min delay above the path's max delay";
    s.set_path_min_delay(p, *d);
  } else if (op == "set_path_delays") {
    const int p = path_index(err);
    const std::optional<double> d = err.empty() ? require_num(e, "delay", err) : std::nullopt;
    const std::optional<double> m = err.empty() ? require_num(e, "min", err) : std::nullopt;
    if (!err.empty()) return err;
    if (!finite_nonneg(*d, "delay", err) || !finite_nonneg(*m, "min delay", err)) return err;
    if (*m > *d) return "min delay above max delay";
    s.set_path_delays(p, *d, *m);
  } else if (op == "set_path_label") {
    const int p = path_index(err);
    if (!err.empty()) return err;
    s.set_path_label(p, e.str_or("label"));
  } else if (op == "set_element_dq" || op == "set_element_setup" ||
             op == "set_element_hold" || op == "set_element_skew") {
    const int i = element_index(err);
    const std::optional<double> v = err.empty() ? require_num(e, "value", err) : std::nullopt;
    if (!err.empty()) return err;
    if (!finite_nonneg(*v, "value", err)) return err;
    if (op == "set_element_dq") {
      s.set_element_dq(i, *v);
    } else if (op == "set_element_setup") {
      s.set_element_setup(i, *v);
    } else if (op == "set_element_skew") {
      s.set_element_skew(i, *v);
    } else {
      s.set_element_hold(i, *v);
    }
  } else if (op == "set_element_dq_min") {
    const int i = element_index(err);
    const std::optional<double> v = err.empty() ? require_num(e, "value", err) : std::nullopt;
    if (!err.empty()) return err;
    // Raw Element::dq_min semantics: negative means "track dq".
    if (!std::isfinite(*v)) return "value must be finite";
    s.set_element_dq_min(i, *v < 0.0 ? -1.0 : *v);
  } else if (op == "set_schedule") {
    const Json& sched = e.get("schedule");
    Expected<ClockSchedule> parsed =
        sched.is_string() ? parser::parse_schedule(sched.as_string())
                          : Expected<ClockSchedule>(make_error(
                                ErrorKind::kInvalidArgument,
                                "set_schedule needs a \"schedule\" (.lcs text)"));
    if (!parsed) return parsed.error().message;
    if (parsed->num_phases() != c.num_phases()) return "schedule phase count mismatch";
    s.set_schedule(parsed.value());
  } else if (op == "scale_schedule") {
    const std::optional<double> f = require_num(e, "factor", err);
    if (!err.empty()) return err;
    if (!std::isfinite(*f) || *f <= 0.0) return "factor must be finite and positive";
    s.set_schedule(s.schedule().scaled(*f));
  } else if (op == "derate") {
    const std::optional<double> ds = require_num(e, "delay_scale", err);
    const std::optional<double> ms = err.empty() ? require_num(e, "min_scale", err) : std::nullopt;
    if (!err.empty()) return err;
    if (!std::isfinite(*ds) || *ds <= 0.0 || !std::isfinite(*ms) || *ms <= 0.0) {
      return "derating scales must be finite and positive";
    }
    if (!s.derating_allowed()) {
      return "derating requires an unmodified structure (paths/elements were removed)";
    }
    s.apply_derating(*ds, *ms);
  } else if (op == "remove_path") {
    const int p = path_index(err);
    if (!err.empty()) return err;
    s.remove_path(p);
  } else if (op == "remove_element") {
    const int i = element_index(err);
    if (!err.empty()) return err;
    s.remove_element(i);
  } else {
    return "unknown op \"" + op + "\"";
  }
  return "";
}

Expected<TimingService::SessionWork> TimingService::verb_analyze(const Json& req) {
  const bool detail = req.bool_or("detail", false);
  return SessionWork{
      .params = detail ? 1u : 0u,
      .run = [this, detail](sta::AnalysisSession& s, Entry& entry,
                            Pending& p) -> Expected<Json> {
        const sta::TimingReport& report = s.analyze();
        p.engine_done();
        if (!detail) return report_payload(report);
        const size_t rendered = render_detail(s, report, entry.detail);
        if (config_.telemetry) {
          detail_rows_rendered_metric_.inc(static_cast<long>(rendered));
          detail_rows_reused_metric_.inc(static_cast<long>(report.elements.size() - rendered));
        }
        return Json::raw(entry.detail.answer);
      }};
}

size_t TimingService::render_detail(const sta::AnalysisSession& s,
                                    const sta::TimingReport& report, DetailRows& kept) {
  const std::vector<sta::ElementTiming>& rows = report.elements;
  const size_t n = rows.size();
  DetailRows next;
  next.structure = s.structure_stamp();
  next.offset.resize(n + 1);
  next.bits.resize(n);
  // Kept bytes name the elements of one numbering; a row whose four values
  // kept their bits has exactly its kept bytes.
  const bool reuse = kept.answer && kept.bits.size() == n && kept.structure == next.structure;
  size_t changed = 0;
  for (size_t i = 0; i < n; ++i) {
    next.bits[i] = row_bits(rows[i]);
    if (!reuse || next.bits[i] != kept.bits[i]) ++changed;
  }

  std::string out = report_payload(report).dump();
  out.pop_back();  // the summary's '}': the rows and the fingerprint follow
  // A rendered row runs about 110 bytes, and one that changed rarely grows
  // by more than 64.
  out.reserve((reuse ? kept.answer->size() + 64 * changed : out.size() + 128 * n) + 64);
  out += ",\"elements\":[";
  for (size_t i = 0; i < n;) {
    size_t end = i;
    while (reuse && end < n && next.bits[end] == kept.bits[end]) ++end;
    if (end == i) {
      next.offset[i] = static_cast<std::uint32_t>(out.size());
      write_row(out, i, s.circuit().element(static_cast<int>(i)).name, rows[i]);
      ++i;
      continue;
    }
    // A run of unchanged rows is one copy of their kept bytes.
    const size_t from = kept.offset[i];
    const size_t at = out.size();
    out.append(*kept.answer, from, kept.offset[end] - from);
    for (; i < end; ++i) next.offset[i] = static_cast<std::uint32_t>(kept.offset[i] - from + at);
  }
  next.offset[n] = static_cast<std::uint32_t>(out.size());
  out += "],\"fingerprint\":\"";
  out += obs::hash_hex(s.content_fingerprint());
  out += "\"}";
  if (out.size() > std::numeric_limits<std::uint32_t>::max()) {
    next.bits.clear();  // the offsets wrapped: keep nothing to reuse
  }
  next.answer = std::make_shared<const std::string>(std::move(out));
  kept = std::move(next);
  return changed;
}

Expected<TimingService::SessionWork> TimingService::verb_report(const Json& req) {
  const std::string format = req.str_or("format", "json");
  if (format != "json" && format != "table" && format != "html") {
    return make_error(ErrorKind::kInvalidArgument,
                      "format must be one of json, table, html (got \"" + format + "\")");
  }
  const bool signoff = req.bool_or("signoff", false);
  const double spread = req.num_or("spread", 0.1);
  const long nworst = req.long_or("nworst", 10);
  if (!std::isfinite(spread) || spread < 0.0 || spread >= 1.0) {
    return make_error(ErrorKind::kInvalidArgument, "spread must be in [0, 1)");
  }
  if (nworst < 1 || nworst > 100000) {
    return make_error(ErrorKind::kInvalidArgument, "nworst must be in [1, 100000]");
  }

  report::SlackDbOptions options;
  options.nworst = static_cast<int>(nworst);
  options.check_hold = true;
  return SessionWork{
      .params = obs::Fnv1a().str(format).u64(signoff ? 1 : 0).num(spread).i32(options.nworst)
                    .digest(),
      .run = [format, signoff, spread, options](sta::AnalysisSession& s, Entry&,
                                               Pending& p) -> Expected<Json> {
        Json result = Json::object();
        result.set("format", Json(format));
        if (signoff) {
          const report::SignoffDB db = report::build_signoff(
              s.circuit(), s.schedule(), sta::standard_corners(spread), options);
          p.engine_done();
          result.set("all_pass", Json(db.all_pass));
          if (format == "json") {
            result.set("content", Json(report::signoff_json(db)));
          } else if (format == "table") {
            result.set("content", Json(report::signoff_table(db)));
          } else {
            result.set("content", Json(report::signoff_html(s.circuit(), db)));
          }
        } else {
          const report::SlackDB db = report::build_slackdb(s.circuit(), s.schedule(), options);
          p.engine_done();
          result.set("feasible", Json(db.feasible));
          if (format == "json") {
            result.set("content", Json(report::report_json(db)));
          } else if (format == "table") {
            result.set("content", Json(report::report_table(db)));
          } else {
            result.set("content", Json(report::report_html(s.circuit(), db)));
          }
        }
        return result;
      }};
}

Expected<TimingService::SessionWork> TimingService::verb_sweep(const Json& req) {
  // Two sweep parameters: "scale" (default) multiplies the schedule per
  // step, "clock_skew" broadcasts a uniform per-latch skew per step — the
  // serve route to a design's skew-tolerance curve.
  const std::string param = req.str_or("param", "scale");
  if (param != "scale" && param != "clock_skew") {
    return make_error(ErrorKind::kInvalidArgument,
                      "param must be one of scale, clock_skew (got \"" + param + "\")");
  }
  const bool skew_sweep = param == "clock_skew";

  // Sweep values: an explicit "factors" array, or a from/to/steps range.
  std::vector<double> factors;
  if (req.get("factors").is_array()) {
    for (const Json& f : req.get("factors").items()) {
      if (!f.is_number()) return make_error(ErrorKind::kInvalidArgument, "factors must be numbers");
      factors.push_back(f.as_number());
    }
  } else {
    const double from = req.num_or("from", skew_sweep ? 0.0 : 0.9);
    const double to = req.num_or("to", skew_sweep ? 1.0 : 1.1);
    const long steps = req.long_or("steps", 5);
    if (steps < 1) return make_error(ErrorKind::kInvalidArgument, "steps must be >= 1");
    if (steps > kMaxSweepSteps) {
      return make_error(ErrorKind::kInvalidArgument,
                        "steps exceeds the cap of " + std::to_string(kMaxSweepSteps));
    }
    for (long i = 0; i < steps; ++i) {
      factors.push_back(steps == 1 ? from : from + (to - from) * static_cast<double>(i) /
                                                       static_cast<double>(steps - 1));
    }
  }
  if (factors.size() > static_cast<size_t>(kMaxSweepSteps)) {
    return make_error(ErrorKind::kInvalidArgument,
                      "factors exceeds the cap of " + std::to_string(kMaxSweepSteps));
  }
  for (const double f : factors) {
    // A skew of exactly zero is meaningful; a scale of zero is not.
    if (!std::isfinite(f) || (skew_sweep ? f < 0.0 : f <= 0.0)) {
      return make_error(ErrorKind::kInvalidArgument,
                        skew_sweep ? "skews must be finite and nonnegative"
                                   : "factors must be finite and positive");
    }
  }

  obs::Fnv1a params;
  params.str(param);
  for (const double f : factors) params.num(f);
  return SessionWork{
      .params = params.digest(),
      .run = [param, skew_sweep, factors = std::move(factors)](
                 sta::AnalysisSession& s, Entry&, Pending& p) -> Expected<Json> {
        // Every step edits from the ORIGINAL state (not the previous step's)
        // and rewinds to it through the undo log before the next, so the
        // log holds one step's records at most and the pre-sweep state
        // comes back exactly — content fingerprint included (checked below
        // via the generation-independent fingerprint cache keys).
        const ClockSchedule base = s.schedule();
        const size_t mark = s.mark();
        Json result = Json::object();
        result.set("param", Json(param));
        result.set("base_cycle", Json(base.cycle));
        Json rows = Json::array();
        for (const double f : factors) {
          if (skew_sweep) {
            for (int i = 0; i < s.circuit().num_elements(); ++i) s.set_element_skew(i, f);
          } else {
            s.set_schedule(base.scaled(f));
          }
          const sta::TimingReport& report = s.analyze();
          Json row = Json::object();
          row.set(skew_sweep ? "skew" : "factor", Json(f));
          row.set("cycle", Json(s.schedule().cycle));
          row.set("feasible", Json(report.feasible));
          row.set("converged", Json(report.converged));
          row.set("worst_setup_slack", Json(report.worst_setup_slack));
          if (std::isfinite(report.worst_hold_slack)) {
            row.set("worst_hold_slack", Json(report.worst_hold_slack));
          }
          rows.push(std::move(row));
          s.undo_to(mark);
        }
        p.engine_done();
        result.set("results", std::move(rows));
        return result;
      }};
}

Expected<TimingService::SessionWork> TimingService::verb_undo(const Json& req) {
  const bool has_to = req.get("to").is_number();
  const long to = req.long_or("to", 0);
  const long steps = req.long_or("steps", 1);
  return SessionWork{
      .write = true,
      .run = [has_to, to, steps](sta::AnalysisSession& s, Entry& entry,
                                 Pending&) -> Expected<Json> {
        std::deque<size_t>& commits = entry.commits;
        const long current = static_cast<long>(s.mark());
        size_t target = 0;
        if (has_to) {
          // Only states the service committed are validated (see
          // edit_batch), so the target must be one of them: the current
          // mark or a recorded one, never a point inside a batch.
          if (to != current && (to < 0 || !std::binary_search(commits.begin(), commits.end(),
                                                              static_cast<size_t>(to)))) {
            return make_error(ErrorKind::kInvalidArgument,
                              "mark " + std::to_string(to) + " is neither the current mark (" +
                                  std::to_string(current) + ") nor one returned by the last " +
                                  std::to_string(kUndoCommits) +
                                  " edit_batch or min apply commits");
          }
          target = static_cast<size_t>(to);
        } else {
          if (steps < 1 || steps > static_cast<long>(commits.size())) {
            return make_error(ErrorKind::kInvalidArgument,
                              "cannot undo " + std::to_string(steps) + " steps (" +
                                  std::to_string(commits.size()) + " committed)");
          }
          target = commits[commits.size() - static_cast<size_t>(steps)];
        }
        commits.erase(std::lower_bound(commits.begin(), commits.end(), target), commits.end());
        s.undo_to(target);
        Json result = Json::object();
        result.set("mark", Json(static_cast<long>(s.mark())));
        result.set("generation", Json(s.generation()));
        return result;
      }};
}

Expected<TimingService::SessionWork> TimingService::verb_min(const Json& req) {
  const bool apply = req.bool_or("apply", false);
  return SessionWork{
      .write = apply,
      .run = [apply](sta::AnalysisSession& s, Entry& entry, Pending& p) -> Expected<Json> {
        opt::GraphSolveOptions options;
        options.assume_valid = true;  // edit batches keep the circuit validate()-clean
        Expected<opt::ExactSolveResult> exact =
            opt::minimize_cycle_time_exact(s.circuit(), options);
        if (!exact) return exact.error();
        p.engine_done();
        // The bytes a Json {min_cycle, schedule, lcs, critical_cycle,
        // fingerprint} object dumps to, written in one pass. Each critical
        // row is {row, a, k} for x_u − x_v ≤ a + k·Tc, in cycle order, so
        // Tc* = −Σa / Σk. The fingerprint names the content the schedule
        // was solved for, so an applied answer is stamped before its
        // commit, whose mark and generation follow.
        const std::vector<opt::CycleRow>& rows = exact->critical_cycle;
        const std::string lcs = parser::write_schedule(exact->schedule);
        std::string out = "{\"min_cycle\":";
        json_double_to(out, exact->min_cycle);
        out += ",\"schedule\":";
        write_schedule_json(out, exact->schedule);
        out += ",\"lcs\":\"";
        obs::json_escape_to(out, lcs);
        out += "\",\"critical_cycle\":[";
        for (size_t i = 0; i < rows.size(); ++i) {
          out += i ? ",{\"row\":\"" : "{\"row\":\"";
          obs::json_escape_to(out, rows[i].name);
          out += "\",\"a\":";
          json_double_to(out, rows[i].a);
          out += ",\"k\":";
          json_double_to(out, static_cast<double>(rows[i].k));
          out += '}';
        }
        out += "],\"fingerprint\":\"";
        out += obs::hash_hex(s.content_fingerprint());
        out += '"';
        if (apply) {
          const size_t mark = s.mark();
          s.set_schedule(exact->schedule);
          if (s.mark() > mark) commit(s, entry.commits, mark);
          out += ",\"mark\":";
          json_double_to(out, static_cast<double>(mark));
          out += ",\"generation\":";
          json_double_to(out, static_cast<double>(s.generation()));
        }
        out += '}';
        return Json::raw(std::move(out));
      }};
}

Expected<Json> TimingService::verb_stats(const Json& /*req*/) {
  Json sessions = Json::object();
  Json keys = Json::array();
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    sessions.set("count", Json(static_cast<long>(pool_.size())));
    sessions.set("bytes", Json(static_cast<long>(pool_bytes_)));
    sessions.set("budget", Json(static_cast<long>(config_.session_bytes)));
    sessions.set("evictions", Json(pool_stats_.evictions));
    sessions.set("loads", Json(pool_stats_.loads));
    std::vector<const Entry*> sorted;
    sorted.reserve(pool_.size());
    for (const auto& [k, entry] : pool_) sorted.push_back(entry.get());
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry* a, const Entry* b) { return a->key < b->key; });
    for (const Entry* entry : sorted) {
      Json row = Json::object();
      row.set("circuit", Json(entry->key));
      row.set("bytes", Json(static_cast<long>(entry->bytes)));
      keys.push(std::move(row));
    }
  }
  sessions.set("keys", std::move(keys));

  const ResultCache::Stats cs = cache_.stats();
  Json cache = Json::object();
  cache.set("hits", Json(cs.hits));
  cache.set("misses", Json(cs.misses));
  cache.set("evictions", Json(cs.evictions));
  cache.set("invalidations", Json(cs.invalidations));
  cache.set("bytes", Json(static_cast<long>(cs.bytes)));
  cache.set("entries", Json(static_cast<long>(cs.entries)));
  cache.set("budget", Json(static_cast<long>(cs.budget)));
  const long lookups = cs.hits + cs.misses;
  cache.set("hit_rate", Json(lookups > 0 ? static_cast<double>(cs.hits) /
                                               static_cast<double>(lookups)
                                         : 0.0));

  // Service-owned metric points (serve.*, cache.*, session.*) so a client
  // can watch hit-rate and latency quantiles without scraping the registry.
  Json metrics = Json::array();
  for (const obs::MetricPoint& point : registry().snapshot()) {
    const bool ours = point.name.rfind("serve.", 0) == 0 ||
                      point.name.rfind("cache.", 0) == 0 ||
                      point.name.rfind("session.", 0) == 0;
    if (!ours) continue;
    Json row = Json::object();
    row.set("name", Json(point.key()));
    if (point.kind == obs::MetricKind::kHistogram) {
      row.set("count", Json(point.count));
      row.set("p50", Json(point.p50));
      row.set("p95", Json(point.p95));
      row.set("p99", Json(point.p99));
      row.set("max", Json(point.max));
    } else {
      row.set("value", Json(point.value));
    }
    metrics.push(std::move(row));
  }

  // Server identity + lifetime, mirrored on the status page and as the
  // build_info / server.uptime_seconds Prometheus series.
  const obs::BuildInfo& build = obs::build_info();
  Json server = Json::object();
  server.set("uptime_seconds", Json(uptime_seconds()));
  server.set("version", Json(build.version));
  server.set("git", Json(build.git));
  server.set("compiler", Json(build.compiler));
  if (audit_) {
    Json audit = Json::object();
    audit.set("path", Json(audit_->path()));
    audit.set("written", Json(audit_->written()));
    audit.set("rotations", Json(audit_->rotations()));
    server.set("audit", std::move(audit));
  }

  Json result = Json::object();
  result.set("server", std::move(server));
  result.set("sessions", std::move(sessions));
  result.set("cache", std::move(cache));
  result.set("metrics", std::move(metrics));
  return result;
}

Expected<Json> TimingService::verb_metrics(const Json& /*req*/) {
  sample_runtime_gauges();
  Json result = Json::object();
  result.set("format", Json("prometheus"));
  result.set("content", Json(obs::prometheus_text(registry().snapshot())));
  return result;
}

Expected<Json> TimingService::verb_trace(const Json& req) {
  RecordTrace trace = record_trace(req.bool_or("clear", true));
  Json result = Json::object();
  result.set("format", Json("chrome_trace"));
  result.set("events", Json(static_cast<long>(trace.events)));
  result.set("dropped", Json(static_cast<long>(trace.dropped)));
  result.set("content", Json(std::move(trace.content)));
  return result;
}

TimingService::RecordTrace TimingService::record_trace(bool clear) {
  std::deque<RequestRecord> records;
  RecordTrace out;
  {
    const std::lock_guard<std::mutex> lk(traced_mu_);
    out.dropped = traced_dropped_;
    if (clear) {
      records.swap(traced_);
      traced_dropped_ = 0;
    } else {
      records = traced_;
    }
  }
  std::vector<obs::TraceEvent> events;
  const auto add = [&](obs::EventKind kind, std::string name, double ts, int tid,
                       std::string args) {
    obs::TraceEvent& e = events.emplace_back();
    e.kind = kind;
    e.name = std::move(name);
    e.category = "serve";
    e.ts_us = ts;
    e.tid = tid;
    e.args = std::move(args);
  };
  for (const RequestRecord& r : records) {
    // µs since the service started; t_seconds is where the request ended.
    const double start = r.t_seconds * 1e6 - r.wall_us;
    const std::string trace_arg = "{\"trace\": \"" + r.trace + "\"}";
    std::string args = "{\"trace\": \"" + r.trace + "\", \"verb\": \"";
    obs::json_escape_to(args, r.verb);
    args += "\", \"circuit\": \"";
    obs::json_escape_to(args, r.circuit);
    args += std::string("\", \"cached\": ") + (r.cached ? "true" : "false") +
            ", \"ok\": " + (r.ok ? "true" : "false") + "}";
    const std::string name = "serve." + r.verb;
    add(obs::EventKind::kBegin, name, start, r.tid, std::move(args));
    double ts = start;
    for (const auto& [stage, us] : r.stages.named()) {
      if (us <= 0.0) continue;
      add(obs::EventKind::kBegin, stage, ts, r.tid, trace_arg);
      ts += us;
      add(obs::EventKind::kEnd, stage, ts, r.tid, "");
    }
    add(obs::EventKind::kEnd, name, start + r.wall_us, r.tid, "");
  }
  out.events = events.size();
  out.content = obs::chrome_trace_json(events);
  return out;
}

void TimingService::set_runtime_sampler(std::function<void()> sampler) {
  const std::lock_guard<std::mutex> lk(sampler_mu_);
  runtime_sampler_ = std::move(sampler);
}

void TimingService::sample_runtime_gauges() {
  uptime_metric_.set(uptime_seconds());
  const ResultCache::Stats cs = cache_.stats();
  cache_bytes_metric_.set(static_cast<double>(cs.bytes));
  cache_entries_metric_.set(static_cast<double>(cs.entries));
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    sessions_metric_.set(static_cast<double>(pool_.size()));
    session_bytes_metric_.set(static_cast<double>(pool_bytes_));
  }
  std::function<void()> sampler;
  {
    const std::lock_guard<std::mutex> lk(sampler_mu_);
    sampler = runtime_sampler_;
  }
  if (sampler) sampler();
}

std::shared_ptr<TimingService::Entry> TimingService::find_entry(const std::string& key) {
  if (key.empty()) return nullptr;
  const std::lock_guard<std::mutex> lk(map_mu_);
  const auto it = pool_.find(key);
  if (it == pool_.end()) return nullptr;
  it->second->last_used = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  return it->second;
}

void TimingService::install_entry(const std::string& key,
                                  std::unique_ptr<sta::SharedSession> session, size_t bytes) {
  const std::lock_guard<std::mutex> lk(map_mu_);
  auto entry = std::make_shared<Entry>();
  entry->key = key;
  entry->session = std::move(session);
  entry->bytes = bytes;
  entry->last_used = clock_.fetch_add(1, std::memory_order_relaxed) + 1;

  const auto it = pool_.find(key);
  if (it != pool_.end()) pool_bytes_ -= it->second->bytes;
  pool_[key] = std::move(entry);
  pool_bytes_ += bytes;
  ++pool_stats_.loads;

  // Evict LRU idle sessions until the byte budget holds: one pass over the
  // candidates in last-used order. A session whose lock is held (a request
  // in flight) is skipped — requests holding a shared_ptr to an evicted
  // entry finish normally (eviction only removes the pool's reference), so
  // later requests for that key see "not_loaded" and reload.
  if (pool_bytes_ > config_.session_bytes && pool_.size() > 1) {
    std::vector<Entry*> candidates;
    candidates.reserve(pool_.size());
    for (auto& [k, e] : pool_) {
      if (k != key) candidates.push_back(e.get());  // never the fresh install
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Entry* a, const Entry* b) { return a->last_used < b->last_used; });
    for (Entry* victim : candidates) {
      if (pool_bytes_ <= config_.session_bytes) break;
      if (!victim->session->try_with([](sta::AnalysisSession&) {})) continue;  // busy
      pool_bytes_ -= victim->bytes;
      const std::string victim_key = victim->key;  // outlive the node erase
      pool_.erase(victim_key);
      ++pool_stats_.evictions;
      session_evictions_metric_.inc();
    }
  }

  pool_stats_.sessions = pool_.size();
  pool_stats_.bytes = pool_bytes_;
  sessions_metric_.set(static_cast<double>(pool_.size()));
  session_bytes_metric_.set(static_cast<double>(pool_bytes_));
}

TimingService::PoolStats TimingService::pool_stats() const {
  const std::lock_guard<std::mutex> lk(map_mu_);
  return pool_stats_;
}

void TimingService::reset() {
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    pool_.clear();
    pool_bytes_ = 0;
    pool_stats_.sessions = 0;
    pool_stats_.bytes = 0;
    sessions_metric_.set(0.0);
    session_bytes_metric_.set(0.0);
  }
  cache_.clear();
}

}  // namespace mintc::serve
