// Shared pieces of the service benchmark: the clock, heap accounting, the
// timed in-process client, span storage and small statistics helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/export.h"
#include "serve/json.h"
#include "serve/service.h"

namespace svcbench {

using mintc::serve::Json;

/// Seconds on the steady clock.
double now_seconds();

/// Marks the calling thread as running the program (TimingService
/// construction, destruction and handle_line) for its lifetime; operator
/// new, replaced in harness.cpp, charges allocations made meanwhile to the
/// program. Scopes nest.
class ProgramScope {
 public:
  ProgramScope();
  ~ProgramScope();
  ProgramScope(const ProgramScope&) = delete;
  ProgramScope& operator=(const ProgramScope&) = delete;

 private:
  bool outer_;
};

/// Peak bytes the program held through operator new at any one time since
/// the process started (requested sizes; the harness's own bytes excluded).
std::size_t program_heap_peak_bytes();

/// One recorded span. A request span (parent -1) times one handle_line
/// call. Its children are the traced run's replays of that request's work
/// through the layers' public functions; they run after the request span
/// ends, so a span's self time is its duration minus the summed durations
/// of its children.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  long request = -1;
  double seconds() const { return end - start; }
};

/// In-memory span store, written out once when the run ends.
class SpanLog {
 public:
  int add(std::string name, double start, double end, int parent, long request);

  /// Time `fn()` as a child span of `parent` and return its result.
  template <typename Fn>
  decltype(auto) time(const char* name, int parent, Fn&& fn) {
    const double start = now_seconds();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      add(name, start, now_seconds(), parent, request_of(parent));
    } else {
      auto result = fn();
      add(name, start, now_seconds(), parent, request_of(parent));
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// A fresh request id, unique across every client sharing this log.
  long next_request() { return requests_++; }
  long request_of(int span) const {
    return span >= 0 ? spans_[static_cast<size_t>(span)].request : -1;
  }

  /// Chrome trace-event JSON (one "X" event per span, parent and request
  /// id in args); false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  long requests_ = 0;
};

/// One decoded response.
struct Reply {
  std::string verb;
  Json envelope;           // the parsed response frame
  double seconds = 0.0;    // handle_line wall time
  std::size_t bytes = 0;   // response frame size
  int span = -1;           // request span (traced runs only)
  bool ok() const { return envelope.get("ok").as_bool(false); }
  bool cached() const { return envelope.get("cached").as_bool(false); }
  const Json& result() const { return envelope.get("result"); }
};

/// The benchmark's single closed-loop client. It renders a request line,
/// times TimingService::handle_line on it, and decodes the response outside
/// the timed interval. Every line sent is hashed, so two runs (or two
/// commits) can be shown to replay identical traffic.
class Client {
 public:
  static constexpr long kHashPrefix = 1000;

  void attach(mintc::serve::TimingService* service) { service_ = service; }
  void set_spans(SpanLog* spans) { spans_ = spans; }

  Reply send(const Json& request);

  /// The line most recently sent (what a traced replay re-parses).
  const std::string& last_line() const { return line_; }

  /// Requests since the last reset_counters(), and their handle_line times.
  long requests() const { return static_cast<long>(latencies_.size()); }
  const std::vector<double>& latencies() const { return latencies_; }
  /// Every request this client sent.
  long sent() const { return sent_total_; }
  std::uint64_t traffic_hash() const { return hash_all_.digest(); }
  std::uint64_t prefix_hash() const { return hash_prefix_.digest(); }
  /// Restart the per-phase latency record (the traffic hashes keep running).
  void reset_counters() { latencies_.clear(); }

 private:
  mintc::serve::TimingService* service_ = nullptr;
  SpanLog* spans_ = nullptr;
  std::string line_;
  long sent_total_ = 0;
  std::vector<double> latencies_;
  mintc::obs::Fnv1a hash_all_;
  mintc::obs::Fnv1a hash_prefix_;
};

/// Time one run of a fixed harness-only kernel (format 6000 keys, insert
/// them into a map, sort them; about 3 ms of branchy, allocating code like
/// the program's, on an arena of its own) that shares no code or heap with
/// the program. Its time tracks how fast the shared host runs right now;
/// see DESIGN.md.
double probe_ms();

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Host facts printed with every result: nproc, load average, CPU model.
std::string host_facts();

}  // namespace svcbench
