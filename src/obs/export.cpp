#include "obs/export.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "base/log.h"
#include "base/strings.h"
#include "base/table.h"

#ifndef MINTC_VERSION
#define MINTC_VERSION "dev"
#endif
#ifndef MINTC_GIT_SHA
#define MINTC_GIT_SHA "unknown"
#endif

namespace mintc::obs {

namespace {

// Process epoch for the metadata wall clock (captured at load).
const std::chrono::steady_clock::time_point kProcessEpoch = std::chrono::steady_clock::now();

double process_wall_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kProcessEpoch)
      .count();
}

const char* phase_of(EventKind kind) {
  switch (kind) {
    case EventKind::kBegin: return "B";
    case EventKind::kEnd: return "E";
    case EventKind::kInstant: return "i";
    case EventKind::kCounter: return "C";
  }
  return "i";
}

std::string labels_json(const Labels& labels) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out << ", ";
    out << "\"" << json_escape(labels[i].first) << "\": \"" << json_escape(labels[i].second)
        << "\"";
  }
  out << "}";
  return out.str();
}

bool write_string(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    log_warn() << "obs: cannot write '" << path << "'";
    return false;
  }
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  return ok;
}

// What json_escape_to makes of each byte: how many characters its escape
// adds (one for \" \\ \n \t, five for any other control character's \u00XX,
// none for the rest), and the character a one-character escape writes after
// its backslash (the byte itself when it needs no escape).
constexpr auto kEscapeExtra = [] {
  std::array<unsigned char, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[static_cast<size_t>(c)] = 5;
  t['"'] = t['\\'] = t['\n'] = t['\t'] = 1;
  return t;
}();
constexpr auto kEscapeChar = [] {
  std::array<char, 256> t{};
  for (int c = 0; c < 256; ++c) t[static_cast<size_t>(c)] = static_cast<char>(c);
  t['\n'] = 'n';
  t['\t'] = 't';
  return t;
}();

/// Write the escape of `c` (kEscapeExtra[c] != 0) at `w`; returns its end.
char* write_escape(char* w, unsigned char c) {
  static constexpr char kHex[] = "0123456789abcdef";
  *w++ = '\\';
  if (kEscapeExtra[c] == 1) {
    *w++ = kEscapeChar[c];
    return w;
  }
  w = std::copy_n("u00", 3, w);
  *w++ = kHex[c >> 4];
  *w++ = kHex[c & 0xf];
  return w;
}

}  // namespace

void json_escape_to(std::string& out, std::string_view s) {
  size_t run = 0;  // start of the pending run that needs no escape
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (kEscapeExtra[c] == 0) continue;
    out.append(s, run, i - run);
    run = i + 1;
    char escape[6];
    out.append(escape, write_escape(escape, c));
  }
  out.append(s, run, s.size() - run);
}

void json_escape_long_to(std::string& out, std::string_view s, std::size_t room_after) {
  std::size_t escaped = s.size();
  for (const char ch : s) escaped += kEscapeExtra[static_cast<unsigned char>(ch)];
  const std::size_t at = out.size();
  out.reserve(at + escaped + room_after);
  out.resize(at + escaped);
  char* w = out.data() + at;
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    const unsigned extra = kEscapeExtra[c];
    if (extra > 1) {
      w = write_escape(w, c);
      continue;
    }
    // No branch per byte: a backslash, then the byte over it or its escape
    // character after it.
    w[0] = '\\';
    w[extra] = kEscapeChar[c];
    w += 1 + extra;
  }
}

void html_escape_to(std::string& out, std::string_view s) {
  size_t run = 0;  // start of the pending run that needs no escape
  for (size_t i = 0; i < s.size(); ++i) {
    const char* escape = nullptr;
    switch (s[i]) {
      case '&': escape = "&amp;"; break;
      case '<': escape = "&lt;"; break;
      case '>': escape = "&gt;"; break;
      case '"': escape = "&quot;"; break;
      default: continue;
    }
    out.append(s, run, i - run);
    out += escape;
    run = i + 1;
  }
  out.append(s, run, s.size() - run);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  json_escape_to(out, s);
  return out;
}

// JSON has no Inf/NaN literals; clamp them to null-safe numbers.
void json_number_to(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
    return;
  }
  // %.15g, as a stream with precision 15 renders it, without the stream.
  char buf[32];  // "-2.22507385850720e-308" is 22
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 15).ptr);
}

std::string json_number(double v) {
  std::string out;
  json_number_to(out, v);
  return out;
}

RunMetadata& run_metadata() {
  static RunMetadata meta{"mintc " MINTC_VERSION, "", "", "", 0.0};
  return meta;
}

const BuildInfo& build_info() {
  static const BuildInfo info{
      MINTC_VERSION,
      MINTC_GIT_SHA,
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
  };
  return info;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hash_hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string fnv1a_hex(std::string_view bytes) { return hash_hex(fnv1a64(bytes)); }

std::string run_metadata_json(const RunMetadata& meta) {
  const double wall = meta.wall_seconds > 0.0 ? meta.wall_seconds : process_wall_seconds();
  std::string out = "{\"tool\": \"";
  json_escape_to(out, meta.tool);
  out += "\", \"circuit\": \"";
  json_escape_to(out, meta.circuit);
  out += "\", \"schedule_hash\": \"";
  json_escape_to(out, meta.schedule_hash);
  if (!meta.corner.empty()) {
    out += "\", \"corner\": \"";
    json_escape_to(out, meta.corner);
  }
  out += "\", \"wall_seconds\": ";
  json_number_to(out, wall);
  out += '}';
  return out;
}

std::string run_metadata_json() { return run_metadata_json(run_metadata()); }

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i) out << ",";
    out << "\n  {\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
        << json_escape(e.category) << "\", \"ph\": \"" << phase_of(e.kind)
        << "\", \"ts\": " << json_number(e.ts_us) << ", \"pid\": 1, \"tid\": " << e.tid;
    if (e.kind == EventKind::kInstant) out << ", \"s\": \"t\"";
    // Merge the counter sample and any args into one "args" object.
    // e.args is a pre-rendered JSON object — splice its members rather than
    // nesting it.
    std::string members;
    if (e.kind == EventKind::kCounter) members += "\"value\": " + json_number(e.value);
    if (e.args.size() > 2 && e.args.front() == '{' && e.args.back() == '}') {
      if (!members.empty()) members += ", ";
      members += e.args.substr(1, e.args.size() - 2);
    }
    if (!members.empty()) out << ", \"args\": {" << members << "}";
    out << "}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"metadata\": " << run_metadata_json() << "}\n";
  return out.str();
}

std::string metrics_json(const std::vector<MetricPoint>& points) {
  std::ostringstream out;
  out << "{\"meta\": " << run_metadata_json() << ",\n \"metrics\": [";
  for (size_t i = 0; i < points.size(); ++i) {
    const MetricPoint& p = points[i];
    if (i) out << ",";
    out << "\n  {\"name\": \"" << json_escape(p.name) << "\", \"labels\": "
        << labels_json(p.labels) << ", ";
    switch (p.kind) {
      case MetricKind::kCounter:
        out << "\"type\": \"counter\", \"value\": " << json_number(p.value);
        break;
      case MetricKind::kGauge:
        out << "\"type\": \"gauge\", \"value\": " << json_number(p.value);
        break;
      case MetricKind::kHistogram: {
        out << "\"type\": \"histogram\", \"count\": " << p.count
            << ", \"sum\": " << json_number(p.sum) << ", \"min\": " << json_number(p.min)
            << ", \"max\": " << json_number(p.max) << ", \"p50\": " << json_number(p.p50)
            << ", \"p95\": " << json_number(p.p95) << ", \"p99\": " << json_number(p.p99)
            << ", \"p999\": " << json_number(p.p999) << ", \"bounds\": [";
        for (size_t b = 0; b < p.bounds.size(); ++b) {
          if (b) out << ", ";
          out << json_number(p.bounds[b]);
        }
        out << "], \"buckets\": [";
        for (size_t b = 0; b < p.buckets.size(); ++b) {
          if (b) out << ", ";
          out << p.buckets[b];
        }
        out << "]";
        break;
      }
    }
    out << "}";
  }
  out << "\n]}\n";
  return out.str();
}

std::string metrics_table(const std::vector<MetricPoint>& points) {
  TextTable table(
      {"metric", "labels", "type", "value", "count", "min", "mean", "p50", "p95", "p99", "max"});
  for (const MetricPoint& p : points) {
    std::string labels;
    for (size_t i = 0; i < p.labels.size(); ++i) {
      if (i) labels += ",";
      labels += p.labels[i].first + "=" + p.labels[i].second;
    }
    switch (p.kind) {
      case MetricKind::kCounter:
        table.add_row({p.name, labels, "counter", fmt_time(p.value, 3), "", "", "", "", "", "",
                       ""});
        break;
      case MetricKind::kGauge:
        table.add_row({p.name, labels, "gauge", fmt_time(p.value, 4), "", "", "", "", "", "",
                       ""});
        break;
      case MetricKind::kHistogram: {
        const double mean = p.count > 0 ? p.sum / static_cast<double>(p.count) : 0.0;
        table.add_row({p.name, labels, "histogram", "", std::to_string(p.count),
                       fmt_time(p.min, 3), fmt_time(mean, 3), fmt_time(p.p50, 3),
                       fmt_time(p.p95, 3), fmt_time(p.p99, 3), fmt_time(p.max, 3)});
        break;
      }
    }
  }
  return table.to_string();
}

bool write_chrome_trace(const std::string& path) {
  return write_chrome_trace(path, Tracer::instance().snapshot());
}

bool write_chrome_trace(const std::string& path, const std::vector<TraceEvent>& events) {
  return write_string(path, chrome_trace_json(events));
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* — map anything else
// (the registry uses dots) to '_' and prefix the tool namespace.
std::string prom_name(const std::string& name) {
  std::string out = "mintc_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// Label VALUES escape backslash, double-quote and newline per the text
// exposition format (different from JSON escaping: no \t or \u).
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_labels(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first + "=\"" + prom_escape(labels[i].second) + "\"";
  }
  if (!extra.empty()) {
    if (!labels.empty()) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

std::string prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return json_number(v);
}

}  // namespace

std::string prometheus_text(const std::vector<MetricPoint>& points) {
  std::ostringstream out;
  // One # TYPE line per metric family (a name can appear with several label
  // sets); the snapshot is sorted by key, so same-name points are adjacent.
  std::string last_family;
  for (const MetricPoint& p : points) {
    const std::string base = prom_name(p.name);
    const std::string family =
        p.kind == MetricKind::kCounter ? base + "_total" : base;
    switch (p.kind) {
      case MetricKind::kCounter:
        if (family != last_family) out << "# TYPE " << family << " counter\n";
        out << family << prom_labels(p.labels) << " " << prom_number(p.value) << "\n";
        break;
      case MetricKind::kGauge:
        if (family != last_family) out << "# TYPE " << family << " gauge\n";
        out << family << prom_labels(p.labels) << " " << prom_number(p.value) << "\n";
        break;
      case MetricKind::kHistogram: {
        if (family != last_family) out << "# TYPE " << family << " histogram\n";
        // The registry stores per-bucket counts; Prometheus buckets are
        // CUMULATIVE and end with the mandatory le="+Inf" == _count.
        long cum = 0;
        for (size_t b = 0; b < p.buckets.size(); ++b) {
          cum += p.buckets[b];
          const std::string le =
              b < p.bounds.size() ? prom_number(p.bounds[b]) : "+Inf";
          out << base << "_bucket" << prom_labels(p.labels, "le=\"" + le + "\"") << " "
              << cum << "\n";
        }
        out << base << "_sum" << prom_labels(p.labels) << " " << prom_number(p.sum) << "\n";
        out << base << "_count" << prom_labels(p.labels) << " " << p.count << "\n";
        break;
      }
    }
    last_family = family;
  }
  // Companion gauges for histogram extremes and the far tail: Prometheus
  // histograms carry no min/max and bucket-interpolated tail quantiles are
  // coarse, so export the registry's exact observed min/max (and its p99.9
  // estimate) as <base>_min/_max/_p999 gauge families. Emitted suffix-major
  // so each derived family stays contiguous with a single # TYPE line even
  // when a name has several label sets.
  struct Derived {
    const char* suffix;
    double MetricPoint::* value;
  };
  static constexpr Derived kDerived[] = {
      {"_min", &MetricPoint::min},
      {"_max", &MetricPoint::max},
      {"_p999", &MetricPoint::p999},
  };
  for (const Derived& d : kDerived) {
    last_family.clear();
    for (const MetricPoint& p : points) {
      if (p.kind != MetricKind::kHistogram) continue;
      const std::string family = prom_name(p.name) + d.suffix;
      if (family != last_family) out << "# TYPE " << family << " gauge\n";
      out << family << prom_labels(p.labels) << " " << prom_number(p.*(d.value)) << "\n";
      last_family = family;
    }
  }
  return out.str();
}

bool write_metrics_json(const std::string& path) {
  return write_string(path, metrics_json(MetricsRegistry::instance().snapshot()));
}

bool write_prometheus_text(const std::string& path) {
  return write_string(path, prometheus_text(MetricsRegistry::instance().snapshot()));
}

}  // namespace mintc::obs
