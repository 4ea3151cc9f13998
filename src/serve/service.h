// TimingService — timing analysis as a service, transport-agnostic core.
//
// The service owns a keyed pool of warm sta::AnalysisSession instances
// (wrapped in sta::SharedSession — ONE writer per circuit key, requests for
// the same key serialize, different keys run concurrently) fronted by a
// ResultCache of rendered responses. It speaks the line-delimited JSON
// protocol of protocol.h and is deliberately transport-free: handle_line()
// maps one request line to one response line, so the socket server
// (server.h), the in-process soak test and bench_serve all drive the exact
// same code path.
//
// Verbs:
//   load        create/replace the session for a circuit key from .lct text
//               (or a named builtin), with an optional .lcs schedule
//               (default: the optimum `min` would return, with its
//               "min_cycle")
//   edit_batch  apply a list of edits atomically (all-or-nothing: any
//               invalid edit, or a result Circuit::validate() would reject,
//               rolls the whole batch back via the undo log). Costs
//               O(edits): only the elements and paths the batch touched are
//               re-validated (the whole circuit after a remove_*), and the
//               content fingerprint is updated per item. Returns the mark
//               before the batch, a valid "to" for `undo`
//   analyze     eq. 17 fixpoint + setup/hold checks; bit-identical to a
//               direct sta::check_schedule of the same content (PR 5
//               contract), optionally with per-element detail
//   report      signoff SlackDB rendered in-memory as json/text/html
//               (single- or multi-corner) — no temp files anywhere
//   sweep       re-analyze across a parameter range, state restored exactly
//               via the undo log. "param": "scale" (default) scales the
//               schedule in shape per step; "param": "clock_skew" broadcasts
//               a uniform per-latch skew per step — the design's
//               skew-tolerance curve over the wire
//   undo        rewind whole committed state changes: "steps": N (default
//               1) undoes the last N edit_batch / min-apply commits; "to"
//               must be the current mark or a mark such a commit returned,
//               never a point inside a batch, so undo lands only on states
//               that passed validation. It reaches back kUndoCommits
//               commits; older marks are forgotten
//   min         the minimum cycle time of the loaded circuit, solved
//               exactly as the maximum cycle ratio of its constraint graph
//               (opt::minimize_cycle_time_exact): "min_cycle" = Tc*;
//               "schedule"/"lcs" = the certified Bellman-Ford potentials at
//               Tc*, an optimal schedule but in general not the vertex
//               MLP's simplex picks; "critical_cycle" = the rows whose
//               ratio is Tc*, in cycle order, each {"row", "a", "k"} for
//               x_u - x_v <= a + k*Tc (so Tc* = -sum a / sum k), named as
//               generate_lp names its rows, with "C4:"/"L3:" names for the
//               variable bounds. "apply": true installs the schedule (what
//               lets `timing_tool min --remote` work)
//   stats       service introspection: per-session pool state, cache
//               hit/byte/eviction counters, latency/queue metrics
//   metrics     the full metrics registry rendered in the Prometheus text
//               exposition format (result.content) — a scrape endpoint;
//               refreshes runtime gauges (pool/cache/in-flight) first
//   trace       the kept records of sampled requests as Chrome trace-event
//               JSON (result.content): per record a serve.<verb> span over
//               its wall time holding one span per nonzero stage, with the
//               event count and the records dropped since the last drain;
//               the verb drains the ring unless "clear": false
//   status      the live ops dashboard as a single self-contained HTML
//               document (result.content): uptime/build tiles, latency and
//               CPU histograms, HistoryRing sparklines, session/cache
//               tables, a transport row while a socket server is attached,
//               and the top-K slow requests with their stage times and
//               trace ids ("top": N sizes the slow table)
//
// One request path: every verb is a row of one verb table. The six session
// verbs (edit_batch, analyze, report, sweep, undo, min) share one path that
// answers not_loaded, takes the session lock, serves and stores reads in
// the result cache, stamps "fingerprint", and invalidates older cache
// generations after a write; each verb's handler holds only its own
// parameter checks and work.
//
// One record per request: every answered frame — including a frame that
// does not parse and a request with a malformed "trace" — completes exactly
// one RequestRecord (audit.h). The audit line, the top-K slow table, the
// --slow-ms warning and the serve.latency_us / serve.cpu_us /
// serve.relaxations histograms are rendered from it, and so is the opt-in
// "cost" envelope block of a dispatched request. handle_line, the one
// entry point (handle() goes through it), completes the record after
// encode_frame, so its wall time runs from request bytes in to response
// bytes out, and its stage times (parse_request, lock_wait, lookup, work,
// render, encode_frame) say where that time went.
//
// Cost attribution: when telemetry is on, every request carries an
// obs::CostAccount, installed on the handler's thread by an obs::CostScope
// — the handler thread charges its CPU time, and the engines (which run on
// that thread) charge relaxations/sweeps at solve completion. The totals
// land in the request's record; a request with "cost": true gets them
// echoed as a response-envelope "cost" block (never inside result — cached
// payloads stay byte-identical whether or not attribution is requested).
//
// Tracing: every request may carry an optional "trace" field (see
// protocol.h). A sampled id is echoed in the response and tags the
// request's record, and finish() keeps the record in a ring of the last
// kTraceRecords sampled ones. The `trace` verb and `timing_serve
// --trace-out` render that ring (record_trace()); nothing else is recorded
// per request, and the engines' tracer stays off.
// ServiceConfig.telemetry kills the whole request-path telemetry (records,
// metrics, cost accounts) for overhead measurement; slow_request_us
// triggers a structured warning log with the request's stage times when a
// request exceeds the threshold.
//
// Caching: responses for the read-only verbs (analyze/report/sweep/min
// without apply) are cached under a content key —
// AnalysisSession::content_fingerprint (which covers derated delays, so two
// corners of one circuit never collide) mixed with the verb and its
// parameters — and tagged with (circuit key, generation) for invalidation
// on edits; see cache.h. A read is rendered once: a miss dump()s its result
// and the cache and the frame share those bytes (a Json::raw fragment
// inside the envelope holds them, and the frame is their one copy). A hit
// takes a reference to the stored bytes and splices them into its frame as
// they are, with no parse and no render, so its frame is the miss's frame
// with "cached" set.
//
// Kept detail rows: a `detail` analyze renders its answer itself. Each
// session keeps its last such answer that the cache admitted, with each
// row's offset and four values; the next one copies every run of rows whose
// values are bitwise unchanged and renders only the rest (Entry::detail).
// A row's bytes are a function of its element's name and four values, so
// the answer is the full render's bytes by construction.
//
// Session-pool eviction: the pool carries a byte budget; loading a new
// circuit evicts least-recently-used idle sessions (session.evictions
// metric). A request against an evicted key fails with "not_loaded" and the
// client re-loads — the soak test exercises exactly that path.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/history.h"
#include "obs/metrics.h"
#include "serve/audit.h"
#include "serve/cache.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "sta/shared_session.h"

namespace mintc::serve {

struct ServiceConfig {
  /// Result-cache byte budget (0 disables caching, and with it the `detail`
  /// rows each session keeps).
  size_t cache_bytes = 64u << 20;
  /// Session-pool byte budget (estimated bytes of warm sessions kept).
  size_t session_bytes = 256u << 20;
  /// Ignored: every solve runs single-threaded on the handler's thread.
  /// Still declared because svcbench sets it; goes with the next svcbench
  /// change.
  int analyze_threads = 0;
  /// Per-frame size cap enforced on handle_line input.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Request-path telemetry master switch: the request record and every
  /// view of it (stage times, cost accounts, serve.* metric updates, the
  /// audit log, the slow table, the sampled-record ring and the
  /// slow-request log). Off is the baseline lane of `bench_serve
  /// --overhead-check`. Protocol behavior is unchanged (a "trace" field is
  /// still validated and echoed).
  bool telemetry = true;
  /// Log a structured warning with the request's stage times for requests
  /// slower than this many microseconds. 0 disables.
  long slow_request_us = 0;
  /// Per-request JSONL audit log path ("" disables). Every handled request
  /// appends one line with its trace id, verb, circuit key, cache hit/miss
  /// and CostAccount totals; see audit.h for rotation semantics.
  std::string audit_path;
  /// Active-audit-file size cap before rotation to "<path>.1".
  size_t audit_rotate_bytes = 8u << 20;
};

class TimingService {
 public:
  explicit TimingService(ServiceConfig config = {});

  /// The whole protocol in one call: parse `line`, dispatch, render the
  /// response frame (with trailing '\n'). Thread-safe; concurrent calls for
  /// the same circuit key serialize on that key's session lock. Always
  /// returns a frame — errors become {"ok":false,...} responses.
  std::string handle_line(std::string_view line);

  /// handle_line for a request built in-process (tests, bench setup): the
  /// request is rendered as a line and the answered frame parsed back, so
  /// the caller sees exactly the bytes a client would.
  Json handle(const Json& request);

  struct PoolStats {
    size_t sessions = 0;
    size_t bytes = 0;
    long evictions = 0;
    long loads = 0;
  };
  PoolStats pool_stats() const;
  ResultCache& cache() { return cache_; }
  const ServiceConfig& config() const { return config_; }

  /// Drop every session and cached result (bench_serve's cold lane).
  void reset();

  /// Hook run at the top of the `metrics` verb, the status page and the
  /// daemon's --prom-out snapshots to refresh gauges only the transport can
  /// sample: its pool's threads, busy workers, executed tasks and queue
  /// depth. The socket server installs it in start() and clears it in
  /// stop(); pass nullptr to clear. While it is installed the status page
  /// shows a transport row. Thread-safe.
  void set_runtime_sampler(std::function<void()> sampler);

  /// Refresh service-owned runtime gauges (cache/pool/in-flight/uptime) and
  /// invoke the transport sampler. Called by the `metrics` verb; the daemon
  /// calls it before periodic --prom-out snapshots.
  void sample_runtime_gauges();

  /// Append one sample (request rate, latency/CPU quantiles, cache and pool
  /// state) to the status dashboard's HistoryRing. The daemon calls this on
  /// its tick; tests call it directly.
  void record_history_sample();
  const obs::HistoryRing& history() const { return history_; }

  /// The records of the slowest requests since start, slowest first (at
  /// most kSlowTopK) — the status page's slow-request table.
  std::vector<RequestRecord> slow_requests() const;

  /// The live ops dashboard as a single self-contained HTML document —
  /// the body of the `status` verb and of `timing_serve --status-html`.
  /// `top_n` sizes the slow-request table.
  std::string status_html(int top_n = 16);

  /// Seconds since construction.
  double uptime_seconds() const;

  /// The audit log, when ServiceConfig.audit_path configured one.
  AuditLog* audit() { return audit_.get(); }

  /// The kept records of sampled requests as Chrome trace-event JSON, the
  /// body of the `trace` verb and of `timing_serve --trace-out`. Per record,
  /// one serve.<verb> span over its wall time (args: trace, verb, circuit,
  /// cached, ok) holds one span per nonzero stage, laid end to end from the
  /// request's start on its handler thread's track; timestamps are µs since
  /// the service started. `clear` empties the ring.
  struct RecordTrace {
    std::string content;
    size_t events = 0;   // trace events in `content`
    size_t dropped = 0;  // records pushed out of the ring since the last clear
  };
  RecordTrace record_trace(bool clear);

  static constexpr size_t kSlowTopK = 16;
  /// Sampled records kept for record_trace(), oldest pushed out first. A
  /// full ring renders as 10-14 events a record, about 9 MB of JSON: well
  /// inside one frame.
  static constexpr size_t kTraceRecords = 8192;
  /// Commits `undo` reaches back to, per session. Past these the oldest is
  /// forgotten with the undo records only it could reach, so a session that
  /// is edited and never rewound keeps a bounded log.
  static constexpr size_t kUndoCommits = 512;
  /// Hard cap on `sweep` steps per request.
  static constexpr long kMaxSweepSteps = 4096;
  /// Samples kept in the status dashboard's metric HistoryRing.
  static constexpr size_t kHistoryCapacity = 240;

 private:
  /// A session's last `detail` analyze answer that the result cache
  /// admitted, with what each of its rows was rendered from.
  struct DetailRows {
    /// The answer: the bytes the cache and the frame share. Never written
    /// again; each answer is a new string.
    ResultCache::Value answer;
    /// Row i is answer[offset[i], offset[i + 1]), its leading comma
    /// included; the last entry is where the rows end.
    std::vector<std::uint32_t> offset;
    /// Row i's departure, arrival, setup and hold slack as bit patterns, so
    /// -0.0 and 0.0 differ, as their rows do.
    std::vector<std::array<std::uint64_t, 4>> bits;
    /// AnalysisSession::structure_stamp() at the render: a row's name is
    /// right only while the element numbering holds.
    std::uint64_t structure = 0;
  };

  struct Entry {
    std::string key;
    std::unique_ptr<sta::SharedSession> session;
    // Rough warm-session footprint, charged against config.session_bytes.
    size_t bytes = 0;
    // LRU stamp from clock_ (monotone); only read/written under map_mu_.
    std::uint64_t last_used = 0;
    // The session's mark before each of its last kUndoCommits committed
    // state changes (edit_batch, min apply), ascending; `undo` rewinds to
    // these. Only read/written inside session->with, under the session's
    // lock.
    std::deque<size_t> commits;
    // The last `detail` answer, kept only while the cache admits it, so no
    // session holds more than the cache's budget. Only read/written inside
    // session->with.
    DetailRows detail;
  };

  /// One request in flight: its record, cost account and stage clock
  /// (service.cpp).
  struct Pending;

  /// A session verb's request after its parameter checks: what the shared
  /// session path runs under the session lock.
  struct SessionWork {
    /// A write changes the session: it bypasses the result cache and, when
    /// it succeeds, invalidates the circuit's older cache generations. A
    /// read is served from and stored in the cache under the content
    /// fingerprint, the verb and `params`.
    bool write = false;
    std::uint64_t params = 0;
    /// The verb's own work. Its answer is stamped with the fingerprint of
    /// the content it names: the session's after the work, unless the work
    /// stamped the one it solved for (min apply:true). A read calls
    /// Pending::engine_done when its engine step ends, so the rest of its
    /// answer is timed as `render`. A read may return its answer already
    /// rendered, fingerprint included, as a Json::raw: a `detail` analyze
    /// does (render_detail).
    std::function<Expected<Json>(sta::AnalysisSession&, Entry&, Pending&)> run;
  };

  // -- The verb table's handlers. A plain verb answers in full; a session
  // verb checks its parameters and returns its work (service.cpp, except
  // status in status.cpp).
  Expected<Json> verb_load(const Json& req);
  Expected<Json> verb_stats(const Json& req);
  Expected<Json> verb_metrics(const Json& req);
  Expected<Json> verb_trace(const Json& req);
  Expected<Json> verb_status(const Json& req);
  Expected<SessionWork> verb_edit_batch(const Json& req);
  Expected<SessionWork> verb_analyze(const Json& req);
  Expected<SessionWork> verb_report(const Json& req);
  Expected<SessionWork> verb_sweep(const Json& req);
  Expected<SessionWork> verb_undo(const Json& req);
  Expected<SessionWork> verb_min(const Json& req);

  /// Answer a parsed request: its trace field and cost account, then
  /// dispatch. Fills `p`'s record except what finish() adds.
  Json answer(const Json& request, Pending& p);

  /// Look `verb` up in the verb table and answer the request (the body of
  /// answer() minus the trace field, cost scope and echoes).
  Json dispatch(const Json& request, const Json& id, const std::string& verb, Pending& p);

  /// The shared path of the session verbs; `bind` is the verb's handler.
  Json run_session_verb(const Json& request, const Json& id, const std::string& verb,
                        Expected<SessionWork> (TimingService::*bind)(const Json&),
                        Pending& p);

  /// Complete `p`'s record for the answered `response` and feed every view
  /// of it: counters, histograms, audit line, slow table, --slow-ms warning
  /// and, when sampled, the trace ring. Records nothing when telemetry is
  /// off.
  void finish(Pending& p, const Json& response);

  /// A `detail` analyze's answer for `report`, the analysis of `s`, written
  /// into one new string: the summary, `"elements"` and the fingerprint.
  /// Each run of rows whose four values match `kept` bit for bit is copied
  /// from its bytes, when `kept` has as many rows and `s` the same
  /// structure stamp; every other row is rendered. Then `kept` describes the
  /// new answer. Returns the number of rows rendered.
  static size_t render_detail(const sta::AnalysisSession& s, const sta::TimingReport& report,
                              DetailRows& kept);

  /// Validate one edit op against the session's EVOLVING state and apply
  /// it; returns "" on success, a human-readable problem otherwise (the
  /// Circuit setters assert on invalid values — an assert must never be
  /// reachable from the wire).
  static std::string apply_edit(sta::AnalysisSession& s, const Json& e);

  /// Look up the session for `key`, bumping its LRU stamp. nullptr = not
  /// loaded (caller renders the not_loaded error).
  std::shared_ptr<Entry> find_entry(const std::string& key);

  /// Insert/replace the entry for `key` and evict LRU sessions over budget.
  void install_entry(const std::string& key, std::unique_ptr<sta::SharedSession> session,
                     size_t bytes);

  mutable std::mutex map_mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> pool_;
  size_t pool_bytes_ = 0;
  std::atomic<std::uint64_t> clock_{0};
  PoolStats pool_stats_;

  ResultCache cache_;
  ServiceConfig config_;

  obs::Counter& requests_metric_;
  obs::Counter& errors_metric_;
  obs::Counter& session_evictions_metric_;
  obs::Counter& slow_requests_metric_;
  obs::Gauge& sessions_metric_;
  obs::Gauge& session_bytes_metric_;
  obs::Gauge& inflight_metric_;
  obs::Gauge& cache_bytes_metric_;
  obs::Gauge& cache_entries_metric_;
  obs::Gauge& uptime_metric_;
  obs::Histogram& latency_metric_;
  obs::Histogram& cpu_metric_;          // serve.cpu_us: attributed CPU/request
  obs::Histogram& relaxations_metric_;  // serve.relaxations: engine work/request
  obs::Counter& detail_rows_rendered_metric_;  // detail rows written fresh
  obs::Counter& detail_rows_reused_metric_;    // detail rows copied from a kept answer

  std::atomic<long> inflight_{0};
  std::mutex sampler_mu_;
  std::function<void()> runtime_sampler_;

  const std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  std::unique_ptr<AuditLog> audit_;

  obs::HistoryRing history_;
  // Rate baseline for record_history_sample(): requests seen at last tick.
  double last_history_t_ = 0.0;
  long last_history_requests_ = 0;

  mutable std::mutex slow_mu_;
  std::vector<RequestRecord> slow_;  // kept sorted, slowest first, <= kSlowTopK

  std::mutex traced_mu_;
  std::deque<RequestRecord> traced_;  // sampled records, oldest first
  size_t traced_dropped_ = 0;         // pushed out since the last clear
};

}  // namespace mintc::serve
