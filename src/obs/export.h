// Exporters for the tracer and the metrics registry.
//
// Three output shapes:
//   * Chrome trace-event JSON — load the file in chrome://tracing (or
//     https://ui.perfetto.dev) to see nested engine spans on a timeline and
//     counter tracks (fixpoint residuals, simplex objective) underneath;
//   * a flat JSON metrics dump — one object per metric with its labels and
//     value (or histogram state), for BENCH_*.json embedding and scripts;
//   * a human-readable table (base/table) for terminal output.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mintc::obs {

/// Run-identification header stamped into every JSON export — metrics,
/// trace, and the report exporters (src/report) all share it, so any dump
/// answers "which tool, which circuit, which schedule, how long into the
/// run". Tools fill circuit/schedule_hash once their inputs are known; the
/// defaults identify the tool version alone.
struct RunMetadata {
  std::string tool;           // "mintc <version>"
  std::string circuit;        // analyzed circuit name ("" = not applicable)
  std::string schedule_hash;  // fnv1a_hex of the schedule text ("" = none)
  /// Corner / derating identity ("" = nominal). Part of the cache identity:
  /// two corners of the same circuit+schedule are DIFFERENT runs, so every
  /// consumer hashing a run key must mix this in (report::meta_for and the
  /// serve result cache both do; regression-tested in report_tests).
  std::string corner;
  double wall_seconds = 0.0;  // process wall time; 0 = stamp at export time
};

/// The mutable process-wide metadata (defaults to the tool version only).
RunMetadata& run_metadata();

/// Compile-time build identity: project version (MINTC_VERSION), git commit
/// (MINTC_GIT_SHA, "unknown" outside a checkout) and the compiler string.
/// Surfaced as the `mintc_build_info` info-gauge, in the `stats` verb and
/// on the status dashboard — so an operator can tie any scrape or page to
/// an exact binary.
struct BuildInfo {
  std::string version;
  std::string git;
  std::string compiler;
};
const BuildInfo& build_info();

/// JSON string-escape (\" \\ control chars) and number rendering (%.15g;
/// non-finite values clamped to +-1e308/0 — JSON has no Inf/NaN literals).
/// Shared by every JSON writer in the tree (metrics, trace, report, serve).
/// The *_to forms append to `out` (json_escape_to each run that needs no
/// escape in one piece); json_escape and json_number return a new string.
void json_escape_to(std::string& out, std::string_view s);
std::string json_escape(std::string_view s);
void json_number_to(std::string& out, double v);
std::string json_number(double v);

/// json_escape_to for a long string: measures the escaped text first, makes
/// room in `out` for it and `room_after` more bytes at once, then writes it
/// in one pass instead of appending run by run.
void json_escape_long_to(std::string& out, std::string_view s, std::size_t room_after);

/// Append `s` with &, <, >, " escaped for HTML text and attribute positions.
void html_escape_to(std::string& out, std::string_view s);

/// The one append-only writer behind every text view in the tree: report,
/// signoff and metadata JSON, the text tables, the HTML dashboards and the
/// SVG figures. `out << x` appends x to the string it wraps, with no stream
/// and no string per value:
///   * text as it is, a char as itself, an integer in decimal;
///   * a double as json_number_to renders it (%.15g, clamped);
///   * quoted(text): a JSON string, escaped by json_escape_to;
///   * html(text): text escaped by html_escape_to;
///   * fixed(v, d): printf's "%.*f"; trimmed(v, d): that without trailing
///     zeros, as fmt_time writes it;
///   * a callable taking the writer, which writes itself (as a stream
///     manipulator does).
struct TextOut {
  std::string& s;
};

struct Quoted {
  std::string_view text;
};
struct Html {
  std::string_view text;
};
struct Fixed {
  double v;
  int decimals;
  bool trim;
};
inline Quoted quoted(std::string_view text) { return {text}; }
inline Html html(std::string_view text) { return {text}; }
inline Fixed fixed(double v, int decimals) { return {v, decimals, false}; }
inline Fixed trimmed(double v, int decimals = 3) { return {v, decimals, true}; }

inline TextOut& operator<<(TextOut& out, std::string_view text) {
  out.s += text;
  return out;
}
inline TextOut& operator<<(TextOut& out, char c) {
  out.s += c;
  return out;
}
template <std::integral I>
  requires(!std::same_as<I, bool> && !std::same_as<I, char>)
TextOut& operator<<(TextOut& out, I v) {
  char buf[24];
  out.s.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return out;
}
inline TextOut& operator<<(TextOut& out, double v) {
  json_number_to(out.s, v);
  return out;
}
inline TextOut& operator<<(TextOut& out, Quoted q) {
  out.s += '"';
  json_escape_to(out.s, q.text);
  out.s += '"';
  return out;
}
inline TextOut& operator<<(TextOut& out, Html h) {
  html_escape_to(out.s, h.text);
  return out;
}
inline TextOut& operator<<(TextOut& out, Fixed f) {
  if (f.trim) {
    fmt_time_to(out.s, f.v, f.decimals);
  } else {
    append_fixed(out.s, f.v, f.decimals);
  }
  return out;
}
template <std::invocable<TextOut&> Write>
TextOut& operator<<(TextOut& out, Write&& write) {
  write(out);
  return out;
}

/// FNV-1a 64-bit digest; used to fingerprint schedules in the header and as
/// the serve-layer result-cache key.
std::uint64_t fnv1a64(std::string_view bytes);

/// FNV-1a 64-bit hex digest of `bytes` (lower-case, 16 chars).
std::string fnv1a_hex(std::string_view bytes);

/// Hex rendering of an already-computed 64-bit digest.
std::string hash_hex(std::uint64_t h);

/// Streaming FNV-1a 64 hasher for composite keys (session fingerprints,
/// cache keys). Doubles are hashed by bit pattern, so two states hash equal
/// iff they are bit-identical — matching the repo's bit-identity contracts.
class Fnv1a {
 public:
  Fnv1a& bytes(const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  /// Length-prefixed, so ("ab","c") and ("a","bc") hash differently.
  Fnv1a& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }
  Fnv1a& num(double v) { return bytes(&v, sizeof v); }
  Fnv1a& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Fnv1a& i32(std::int32_t v) { return bytes(&v, sizeof v); }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Render `meta` as one JSON object; a zero wall_seconds is replaced with
/// the process wall clock at call time.
std::string run_metadata_json(const RunMetadata& meta);
std::string run_metadata_json();  // the process-wide metadata

/// Render events as Chrome trace-event JSON ({"traceEvents": [...],
/// "metadata": {...run header...}}).
/// kBegin/kEnd become ph "B"/"E", kInstant "i", kCounter "C"; all events
/// carry pid 1, the recording thread's tid, and timestamps in microseconds.
/// A counter's value and any pre-rendered args are merged into the event's
/// one "args" object.
std::string chrome_trace_json(const std::vector<TraceEvent>& events);

/// Render metric points in the Prometheus text exposition format. Names are
/// prefixed "mintc_" with dots mapped to underscores; counters get the
/// "_total" suffix; histograms emit CUMULATIVE "_bucket{le=...}" series
/// (including "+Inf"), "_sum" and "_count", per the format spec, plus
/// companion "_min"/"_max"/"_p999" gauge families carrying the exact
/// observed extremes and the far-tail estimate (appended after the main
/// families so each derived family keeps a single # TYPE line). Label
/// values escape backslash, double-quote and newline. Ends with a newline.
std::string prometheus_text(const std::vector<MetricPoint>& points);

/// Render metric points as {"meta": {...run header...}, "metrics": [...]}.
std::string metrics_json(const std::vector<MetricPoint>& points);

/// Render metric points as a column-aligned text table.
std::string metrics_table(const std::vector<MetricPoint>& points);

/// Snapshot the process-wide tracer / registry and write to `path`.
/// Returns false (and logs a warning) when the file cannot be written.
bool write_chrome_trace(const std::string& path);
bool write_metrics_json(const std::string& path);
bool write_prometheus_text(const std::string& path);

/// Write an explicit event list (e.g. a per-failure slice) to `path`.
bool write_chrome_trace(const std::string& path, const std::vector<TraceEvent>& events);

}  // namespace mintc::obs
