// Span-based tracer with near-zero cost when disabled, request-scoped
// trace-context propagation, and a bounded ring buffer.
//
// The tracer is a process-wide buffer of timestamped events — nested
// begin/end spans, instants and counter samples — designed around one hard
// requirement: when tracing is OFF, the hot loops must pay only a hoisted
// relaxed atomic load plus one thread-local read (engines read enabled()
// once per solve or sweep and branch on a local bool). When ON, recording
// takes a mutex and appends to the buffer; that is fine for the diagnosis
// runs tracing exists for.
//
// Two ways to turn recording on:
//   * set_enabled(true) — the classic process-wide switch (CLI --trace-out);
//   * a SAMPLED TraceContext installed on the current thread — how the serve
//     layer records exactly one request's spans without paying for the rest
//     of the traffic. The context carries a 64-bit trace id that is stamped
//     into every event the thread (and any worker it propagates the context
//     to via TraceContextScope) records, so one request's events can be
//     sliced out of the shared buffer afterwards.
//
// Buffering: by default the buffer is unbounded (one-shot CLI runs). A
// long-lived daemon calls set_capacity(N) to turn it into a ring — when
// full, the OLDEST events are dropped, a process metric
// (`trace.dropped_spans`) counts the loss, and snapshot() prepends a
// `trace.truncated` marker instant so consumers know the B/E stream may be
// unbalanced at the front (exports of a wrapped ring are explicitly marked
// rather than silently malformed).
//
// Timestamps are microseconds since the tracer's construction (steady
// clock), clamped to be monotone in buffer order so exported traces always
// load cleanly in chrome://tracing (export.h renders the Chrome trace-event
// JSON).
//
// Usage:
//   obs::TraceSpan span("lp-solve", "opt");     // RAII begin/end pair
//   obs::Tracer::instance().counter("fixpoint.residual", r, "sta");
//
// A TraceSpan that recorded its begin event always records the matching end
// event, even if tracing is disabled in between — exported traces have
// balanced B/E events by construction (tested).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mintc::obs {

struct CostAccount;  // cost.h — charged through the context's cost pointer

/// Request-scoped trace identity, carried across the wire (serve protocol
/// "trace" field) and across threads (TraceContextScope). A context is
/// ACTIVE — i.e. forces recording on this thread — when it is sampled and
/// has a nonzero id.
///
/// `cost` rides along independently of sampling: the serve layer attributes
/// CPU/work to every telemetry-on request, not just the traced ones. The
/// account is owned by the request handler, outlives the scope that
/// installs it, and is charged only on the handler's thread: its fields are
/// plain integers, so a context carrying one stays on that thread.
struct TraceContext {
  std::uint64_t trace_id = 0;
  bool sampled = false;
  CostAccount* cost = nullptr;

  bool active() const { return sampled && trace_id != 0; }
};

/// The calling thread's current context ({0, false} when none installed).
TraceContext current_trace_context();

/// Install `context` on the calling thread (returns the previous one).
/// Prefer TraceContextScope; this exists for hand-rolled task hops.
TraceContext exchange_trace_context(TraceContext context);

/// RAII: install a context for a scope (a request handler, a pool task) and
/// restore the previous one on exit. Copy the context BY VALUE into task
/// lambdas — the scope is cheap (two thread-local writes).
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext context)
      : previous_(exchange_trace_context(context)) {}
  ~TraceContextScope() { exchange_trace_context(previous_); }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext previous_;
};

enum class EventKind { kBegin, kEnd, kInstant, kCounter };

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  std::string name;
  std::string category;
  double ts_us = 0.0;   // microseconds since tracer epoch, monotone in order
  double value = 0.0;   // counter sample (kCounter only)
  std::uint64_t trace_id = 0;  // owning request ("" = no context)
  int tid = 1;          // stable small per-thread id (1-based)
  std::string args;     // pre-rendered JSON object ("" = none)
};

/// The name of the synthetic marker instant snapshot() prepends when the
/// requested range lost events to the ring (value = events dropped).
inline constexpr const char* kTruncationMarkerName = "trace.truncated";

class Tracer {
 public:
  static Tracer& instance();

  /// Should this thread record right now? The only call allowed on a hot
  /// path: one relaxed atomic load plus one thread-local read. Hoist the
  /// result into a local bool before a loop (correct as long as the trace
  /// context is stable across the loop, which request handlers guarantee).
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed) || current_trace_context().active();
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Bound the buffer to `cap` events (0 = unbounded, the default). When
  /// full, recording drops the OLDEST event, counts it in dropped() and the
  /// `trace.dropped_spans` metric, and snapshot() marks the loss.
  void set_capacity(size_t cap);
  size_t capacity() const;

  /// Drop all buffered events and reset the drop accounting.
  void clear();

  /// Total events recorded since the last clear() — INCLUDING events the
  /// ring has since dropped, so a value from num_events() is a stable mark
  /// for snapshot(since) even while the ring churns.
  size_t num_events() const;

  /// Events lost to the ring since the last clear().
  size_t dropped() const;

  /// Record a span begin if enabled; returns whether it was recorded. Pass
  /// the result to end_span() so B/E events stay balanced across an
  /// enable/disable edge (TraceSpan does this automatically). `args` is a
  /// pre-rendered JSON object tagged onto the begin event ("" = none).
  bool begin_span(const std::string& name, const std::string& category = "mintc",
                  std::string args = "");
  /// Record the matching span end unconditionally.
  void end_span(const std::string& name, const std::string& category = "mintc");

  /// Point-in-time marker (no-op when disabled).
  void instant(const std::string& name, const std::string& category = "mintc",
               std::string args = "");
  /// Sampled value — renders as a counter track in chrome://tracing
  /// (no-op when disabled).
  void counter(const std::string& name, double value, const std::string& category = "mintc");

  /// Copy of the buffered events with sequence number >= `since` (a mark
  /// previously read from num_events(); 0 = everything). When the ring has
  /// dropped events inside the requested range, the copy is prefixed with a
  /// kTruncationMarkerName instant whose value is the number lost — B/E
  /// balance is only guaranteed for snapshots without that marker.
  std::vector<TraceEvent> snapshot(size_t since = 0) const;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;
  void record(EventKind kind, const std::string& name, const std::string& category,
              double value, std::string args = "");

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  size_t capacity_ = 0;   // 0 = unbounded
  size_t head_ = 0;       // ring start index within events_ (capacity_ > 0)
  size_t seq_base_ = 0;   // sequence number of the oldest buffered event
  size_t dropped_ = 0;    // events lost to the ring since clear()
  double last_ts_us_ = 0.0;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII span: begin at construction (if tracing is enabled), end at
/// destruction. Nest freely; chrome://tracing stacks nested spans.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "mintc")
      : name_(name), category_(category) {
    active_ = Tracer::instance().begin_span(name_, category_);
  }
  /// Span with begin-event args (a pre-rendered JSON object, e.g.
  /// R"({"verb":"analyze"})") — how the serve layer tags request spans.
  TraceSpan(const char* name, const char* category, std::string args)
      : name_(name), category_(category) {
    active_ = Tracer::instance().begin_span(name_, category_, std::move(args));
  }
  ~TraceSpan() {
    if (active_) Tracer::instance().end_span(name_, category_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* category_;
  bool active_ = false;
};

}  // namespace mintc::obs
