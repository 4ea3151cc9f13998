// Span-based tracer with near-zero cost when disabled: the process-wide
// trace of a CLI run (`--trace-out`).
//
// The tracer is a process-wide buffer of timestamped events — nested
// begin/end spans, instants and counter samples — designed around one hard
// requirement: when tracing is OFF, the hot loops must pay only a hoisted
// relaxed atomic load (engines read enabled() once per solve or sweep and
// branch on a local bool). When ON, recording takes a mutex and appends to
// the buffer; that is fine for the diagnosis runs tracing exists for. The
// buffer is unbounded: a run records until it exits.
//
// The service does not record here. Its `trace` verb renders the records
// of sampled requests (serve/service.h) through the same exporter.
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
#include <mutex>
#include <string>
#include <vector>

namespace mintc::obs {

enum class EventKind { kBegin, kEnd, kInstant, kCounter };

struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  std::string name;
  std::string category;
  double ts_us = 0.0;   // microseconds since the trace's epoch, monotone in order
  double value = 0.0;   // counter sample (kCounter only)
  int tid = 1;          // stable small per-thread id (1-based)
  std::string args;     // pre-rendered JSON object ("" = none)
};

/// Stable small id of the calling thread: 1 for the first thread that asks
/// (usually main), then 2, 3, ... in first-ask order. Trace events carry it
/// as their track.
int thread_trace_id();

class Tracer {
 public:
  static Tracer& instance();

  /// Should this thread record right now? The only call allowed on a hot
  /// path: one relaxed atomic load. Hoist the result into a local bool
  /// before a loop.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Drop all buffered events.
  void clear();

  /// Events recorded since the last clear(): a mark for snapshot(since).
  size_t num_events() const;

  /// Record a span begin if enabled; returns whether it was recorded. Pass
  /// the result to end_span() so B/E events stay balanced across an
  /// enable/disable edge (TraceSpan does this automatically).
  bool begin_span(const std::string& name, const std::string& category = "mintc");
  /// Record the matching span end unconditionally.
  void end_span(const std::string& name, const std::string& category = "mintc");

  /// Point-in-time marker (no-op when disabled).
  void instant(const std::string& name, const std::string& category = "mintc");
  /// Sampled value — renders as a counter track in chrome://tracing
  /// (no-op when disabled).
  void counter(const std::string& name, double value, const std::string& category = "mintc");

  /// Copy of the buffered events from index `since` on (a mark previously
  /// read from num_events(); 0 = everything).
  std::vector<TraceEvent> snapshot(size_t since = 0) const;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;
  void record(EventKind kind, const std::string& name, const std::string& category,
              double value);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
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
