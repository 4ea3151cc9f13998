#include "report/export.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string_view>

#include "base/log.h"
#include "base/table.h"
#include "obs/export.h"
#include "report/html.h"
#include "viz/svg.h"

namespace mintc::report {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

obs::RunMetadata meta_for(const SlackDB& db) {
  obs::RunMetadata meta = obs::run_metadata();
  meta.circuit = db.circuit;
  // The corner is part of the run identity: the slow and fast corners of the
  // same circuit+schedule are different analyses and must never share a
  // cache key, so the derating settings are mixed into the hash alongside
  // the schedule text (regression-tested in report_tests).
  meta.schedule_hash = obs::hash_hex(obs::Fnv1a()
                                         .str(db.schedule.to_string())
                                         .str(db.corner)
                                         .digest());
  meta.corner = db.corner;
  meta.wall_seconds = 0.0;  // stamp at export time
  return meta;
}

using obs::html;
using obs::quoted;
using obs::TextOut;
using obs::trimmed;

/// A slack or arrival as the tables print it: "-" where nothing constrains
/// it (+inf), "-inf", else fmt_time's text.
struct OrDash {
  double v;
};
TextOut& operator<<(TextOut& out, OrDash d) {
  if (d.v == kInf) return out << "-";
  if (d.v == -kInf) return out << "-inf";
  return out << trimmed(d.v);
}

// ---------------------------------------------------------------- JSON --

/// `[a, b, ...]`: each item written by `put`, after `first` or, from the
/// second on, `rest`.
template <class T, class Put>
void list_json(TextOut& out, const std::vector<T>& items, Put put, std::string_view first = "",
               std::string_view rest = ", ") {
  out << "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out << (i ? rest : first);
    put(out, items[i]);
  }
  out << "]";
}

constexpr auto as_is = [](TextOut& out, const auto& v) { out << v; };

void hist_json(TextOut& out, const HistogramSummary& h) {
  out << "{\"count\": " << h.count << ", \"sum\": " << h.sum << ", \"min\": " << h.min
      << ", \"max\": " << h.max << ", \"p50\": " << h.p50 << ", \"p95\": " << h.p95
      << ", \"p99\": " << h.p99 << ", \"bounds\": ";
  list_json(out, h.bounds, as_is);
  out << ", \"buckets\": ";
  list_json(out, h.buckets, as_is);
  out << "}";
}

void endpoint_json(TextOut& out, const EndpointRecord& r) {
  out << "{\"element\": " << r.element << ", \"name\": " << quoted(r.name)
      << ", \"kind\": " << quoted(to_string(r.kind)) << ", \"phase\": " << r.phase
      << ", \"departure\": " << r.departure << ", \"arrival\": " << r.arrival
      << ", \"skew\": " << r.skew << ", \"setup_slack\": " << r.setup_slack
      << ", \"hold_slack\": " << r.hold_slack << ", \"borrow\": " << r.borrow
      << ", \"origin_path\": " << r.origin_path << ", \"origin_from\": " << r.origin_from
      << ", \"tight\": ";
  list_json(out, r.tight, [](TextOut& o, const std::string& t) { o << quoted(t); });
  out << "}";
}

void path_json(TextOut& out, const PathRecord& r) {
  out << "{\"path\": " << r.path << ", \"from\": " << quoted(r.from) << ", \"to\": "
      << quoted(r.to) << ", \"label\": " << quoted(r.label) << ", \"delay\": " << r.delay
      << ", \"slack\": " << r.slack << ", \"tight\": " << (r.tight ? "true" : "false") << "}";
}

void chain_json(TextOut& out, const BorrowChain& c) {
  out << "{\"elements\": ";
  list_json(out, c.elements, as_is);
  out << ", \"paths\": ";
  list_json(out, c.paths, as_is);
  out << ", \"total_borrow\": " << c.total_borrow
      << ", \"is_loop\": " << (c.is_loop ? "true" : "false") << "}";
}

void summary_json(TextOut& out, const SlackDB& db) {
  out << "{\"circuit\": " << quoted(db.circuit) << ", \"corner\": " << quoted(db.corner)
      << ", \"feasible\": " << (db.feasible ? "true" : "false") << ", \"tc\": " << db.tc
      << ", \"num_constraints\": " << db.num_constraints
      << ", \"worst_setup_slack\": " << db.worst_setup_slack()
      << ", \"worst_hold_slack\": " << db.worst_hold_slack()
      << ", \"total_borrow\": " << db.total_borrow << ", \"max_skew\": " << db.max_skew
      << ", \"skew_tolerance\": " << db.skew_tolerance << ", \"overlapping_phases\": ";
  list_json(out, db.overlapping_phases, [](TextOut& o, const std::pair<int, int>& ij) {
    o << "[" << ij.first << ", " << ij.second << "]";
  });
  out << ", \"schedule\": {\"cycle\": " << db.schedule.cycle << ", \"start\": ";
  list_json(out, db.schedule.start, as_is);
  out << ", \"width\": ";
  list_json(out, db.schedule.width, as_is);
  out << "}}";
}

/// A little more than a database renders to, so its string is allocated
/// once: past the names, an endpoint takes 228-253 bytes and a path
/// 111-117 on svcbench's synthetic designs.
size_t report_bytes(const SlackDB& db) {
  size_t bytes = 2048;
  for (const EndpointRecord& r : db.endpoints) bytes += 272 + r.name.size();
  for (const PathRecord& r : db.paths) bytes += 128 + r.from.size() + r.to.size() + r.label.size();
  for (const BorrowChain& c : db.borrow_chains) bytes += 64 + 8 * c.elements.size();
  return bytes;
}

void report_body_json(TextOut& out, const SlackDB& db) {
  out << "{\"meta\": " << obs::run_metadata_json(meta_for(db)) << ",\n \"summary\": ";
  summary_json(out, db);
  out << ",\n \"endpoints\": ";
  list_json(out, db.endpoints, endpoint_json, "\n   ", ",\n   ");
  out << ",\n \"paths\": ";
  list_json(out, db.paths, path_json, "\n   ", ",\n   ");
  out << ",\n \"worst_endpoints\": ";
  list_json(out, db.worst_endpoints, as_is);
  out << ",\n \"worst_paths\": ";
  list_json(out, db.worst_paths, as_is);
  out << ",\n \"borrow_chains\": ";
  list_json(out, db.borrow_chains, chain_json, "\n   ", ",\n   ");
  out << ",\n \"histograms\": {\"setup_slack\": ";
  hist_json(out, db.setup_hist);
  out << ", \"borrow\": ";
  hist_json(out, db.borrow_hist);
  out << "}}";
}

// --------------------------------------------------------------- table --

/// One table row: each value goes through the writer into its own cell.
template <class... Values>
void table_row(TextTable& table, const Values&... values) {
  TextOut cell{table.cell_text()};
  ((cell << values, table.end_cell()), ...);
}

/// A chain's element names, joined by " <- ".
auto chain_names(const SlackDB& db, const BorrowChain& c) {
  return [&db, &c](TextOut& out) {
    for (size_t i = 0; i < c.elements.size(); ++i) {
      if (i) out << " <- ";
      out << db.endpoints[static_cast<size_t>(c.elements[i])].name;
    }
    if (c.is_loop) out << " (loop)";
  };
}

/// An endpoint's tight constraint kinds, `sep` between them.
auto tight_list(const EndpointRecord& r, std::string_view sep) {
  return [&r, sep](TextOut& out) {
    for (size_t i = 0; i < r.tight.size(); ++i) {
      if (i) out << sep;
      out << r.tight[i];
    }
  };
}

/// The name of corner `c` of a signoff; "-" when no corner holds the value.
std::string_view corner_name(const SignoffDB& db, int c) {
  if (c < 0) return "-";
  return db.corners[static_cast<size_t>(c)].corner;
}

// ---------------------------------------------------------------- HTML --

/// Vertical-bar histogram as inline SVG. Buckets entirely at or below zero
/// (violations) render in the status color; tooltips carry exact ranges.
void histogram_svg(TextOut& out, const HistogramSummary& h, const char* series_var,
                   const char* unit) {
  // Drop the trailing +inf bucket when empty (always, for data-fit bounds).
  size_t nb = h.buckets.size();
  while (nb > 1 && h.buckets[nb - 1] == 0) --nb;
  const double w = 640.0, hgt = 200.0, ml = 40.0, mr = 10.0, mt = 14.0, mb = 34.0;
  out << "<svg viewBox=\"0 0 " << trimmed(w, 0) << " " << trimmed(hgt, 0) << "\" width=\""
      << trimmed(w, 0) << "\" role=\"img\">\n";
  if (h.count == 0 || nb == 0) {
    out << "  <text x=\"20\" y=\"30\" fill=\"var(--text-2)\" font-size=\"12\">no data</text>\n"
        << "</svg>\n";
    return;
  }
  long maxc = 1;
  for (size_t b = 0; b < nb; ++b) maxc = std::max(maxc, h.buckets[b]);
  const double plot_w = w - ml - mr, plot_h = hgt - mt - mb;
  const double bw = plot_w / static_cast<double>(nb);
  const auto edge = [&](size_t k) {  // bucket k covers (edge(k), edge(k+1)]
    if (k == 0) return h.min;
    if (k - 1 < h.bounds.size()) return h.bounds[k - 1];
    return h.max;
  };
  // Recessive grid: quarter lines.
  for (int g = 0; g <= 4; ++g) {
    const double y = mt + plot_h * g / 4.0;
    out << "  <line x1=\"" << trimmed(ml, 1) << "\" y1=\"" << trimmed(y, 1) << "\" x2=\""
        << trimmed(w - mr, 1) << "\" y2=\"" << trimmed(y, 1) << "\" stroke=\"var(--grid)\"/>\n";
  }
  out << "  <text x=\"4\" y=\"" << trimmed(mt + 4.0, 1)
      << "\" fill=\"var(--text-2)\" font-size=\"11\">" << maxc << "</text>\n";
  for (size_t b = 0; b < nb; ++b) {
    const double frac = static_cast<double>(h.buckets[b]) / static_cast<double>(maxc);
    const double bar_h = plot_h * frac;
    const double x = ml + bw * static_cast<double>(b) + 1.0;  // 2px gap between bars
    const double y = mt + plot_h - bar_h;
    const bool violation = edge(b + 1) <= 0.0;
    out << "  <rect x=\"" << trimmed(x, 1) << "\" y=\"" << trimmed(y, 1) << "\" width=\""
        << trimmed(bw - 2.0, 1) << "\" height=\"" << trimmed(bar_h, 1) << "\" rx=\"2\" fill=\""
        << (violation ? "var(--bad)" : series_var) << "\">"
        << "<title>(" << trimmed(edge(b)) << ", " << trimmed(edge(b + 1)) << "] " << unit
        << ": " << h.buckets[b] << "</title></rect>\n";
    if (h.buckets[b] == maxc) {  // selective direct label: the mode only
      out << "  <text x=\"" << trimmed(x + (bw - 2.0) / 2.0, 1) << "\" y=\""
          << trimmed(y - 3.0, 1)
          << "\" text-anchor=\"middle\" fill=\"var(--text-2)\" font-size=\"11\">" << maxc
          << "</text>\n";
    }
  }
  // Baseline + x tick labels (about six, at bucket edges).
  out << "  <line x1=\"" << trimmed(ml, 1) << "\" y1=\"" << trimmed(mt + plot_h, 1)
      << "\" x2=\"" << trimmed(w - mr, 1) << "\" y2=\"" << trimmed(mt + plot_h, 1)
      << "\" stroke=\"var(--border)\"/>\n";
  const size_t step = std::max<size_t>(1, nb / 6);
  for (size_t k = 0; k <= nb; k += step) {
    const double x = ml + bw * static_cast<double>(k);
    out << "  <text x=\"" << trimmed(x, 1) << "\" y=\"" << trimmed(hgt - mb + 16.0, 1)
        << "\" text-anchor=\"middle\" fill=\"var(--text-2)\" font-size=\"11\">"
        << trimmed(edge(k), 2) << "</text>\n";
  }
  out << "</svg>\n";
}

/// Borrow chains as horizontal segmented bars: one row per chain, segment
/// width proportional to each latch's borrow, 2px gaps between segments.
void borrow_chains_svg(TextOut& out, const SlackDB& db) {
  const size_t shown = std::min<size_t>(db.borrow_chains.size(), 12);
  const double w = 640.0, row_h = 26.0, ml = 150.0, mr = 60.0;
  const double hgt = row_h * static_cast<double>(shown) + 8.0;
  double max_total = 0.0;
  for (const BorrowChain& c : db.borrow_chains) max_total = std::max(max_total, c.total_borrow);
  out << "<svg viewBox=\"0 0 " << trimmed(w, 0) << " " << trimmed(hgt, 0) << "\" width=\""
      << trimmed(w, 0) << "\" role=\"img\">\n";
  if (shown == 0 || max_total <= 0.0) {
    out << "  <text x=\"20\" y=\"20\" fill=\"var(--text-2)\" font-size=\"12\">"
           "no latch borrows time under this schedule</text>\n</svg>\n";
    return;
  }
  const double plot_w = w - ml - mr;
  for (size_t r = 0; r < shown; ++r) {
    const BorrowChain& c = db.borrow_chains[r];
    const double y = 4.0 + row_h * static_cast<double>(r);
    const EndpointRecord& head = db.endpoints[static_cast<size_t>(c.elements.front())];
    out << "  <text x=\"" << trimmed(ml - 8.0, 1) << "\" y=\"" << trimmed(y + 15.0, 1)
        << "\" text-anchor=\"end\" fill=\"var(--text-1)\" font-size=\"12\">" << html(head.name);
    if (c.elements.size() > 1) out << " +" << c.elements.size() - 1;
    if (c.is_loop) out << " (loop)";
    out << "</text>\n";
    double x = ml;
    for (const int e : c.elements) {
      const EndpointRecord& seg = db.endpoints[static_cast<size_t>(e)];
      const double seg_w = plot_w * seg.borrow / max_total;
      if (seg_w <= 0.5) continue;
      out << "  <rect x=\"" << trimmed(x, 1) << "\" y=\"" << trimmed(y + 5.0, 1)
          << "\" width=\"" << trimmed(std::max(1.0, seg_w - 2.0), 1)
          << "\" height=\"14\" rx=\"2\" fill=\"var(--series-2)\"><title>" << html(seg.name)
          << " (phi" << seg.phase << "): borrow " << trimmed(seg.borrow) << "</title></rect>\n";
      x += seg_w;
    }
    out << "  <text x=\"" << trimmed(x + 6.0, 1) << "\" y=\"" << trimmed(y + 15.0, 1)
        << "\" fill=\"var(--text-2)\" font-size=\"11\">" << trimmed(c.total_borrow)
        << "</text>\n";
  }
  out << "</svg>\n";
}

// html_head / tile / the dashboard CSS live in report/html.h, shared with
// the serve layer's live status dashboard.

void meta_line(TextOut& out, const SlackDB& db) {
  const obs::RunMetadata meta = meta_for(db);
  out << "<div class=\"meta\">" << html(meta.tool) << " &middot; schedule "
      << html(meta.schedule_hash) << " &middot; " << db.num_constraints
      << " constraints &middot; built in " << trimmed(db.build_seconds * 1e3, 2)
      << " ms</div>\n";
}

void endpoint_table_html(TextOut& out, const SlackDB& db, const std::vector<int>& ids) {
  out << "<table>\n<tr><th>endpoint</th><th>kind</th><th>phase</th><th>arrival</th>"
         "<th>departure</th><th>skew</th><th>setup slack</th><th>hold slack</th>"
         "<th>borrow</th><th>tight</th></tr>\n";
  for (const int id : ids) {
    const EndpointRecord& r = db.endpoints[static_cast<size_t>(id)];
    out << "<tr><td>" << html(r.name) << "</td><td>" << to_string(r.kind) << "</td><td>phi"
        << r.phase << "</td><td>" << OrDash{r.arrival} << "</td><td>" << trimmed(r.departure)
        << "</td><td>" << trimmed(r.skew) << "</td><td"
        << (r.setup_slack < 0 ? " class=\"bad\"" : "") << ">" << OrDash{r.setup_slack}
        << "</td><td" << (r.hold_slack < 0 ? " class=\"bad\"" : "") << ">"
        << OrDash{r.hold_slack} << "</td><td>" << trimmed(r.borrow) << "</td><td>"
        << tight_list(r, " ") << "</td></tr>\n";
  }
  out << "</table>\n";
}

/// A little more than a dashboard renders to, so its string is allocated
/// once: the timing diagram takes up to 550 bytes an element.
size_t html_bytes(const Circuit& circuit) {
  return 24576 + 600 * static_cast<size_t>(circuit.num_elements());
}

}  // namespace

std::string report_json(const SlackDB& db) {
  std::string s;
  s.reserve(report_bytes(db));
  TextOut out{s};
  report_body_json(out, db);
  out << "\n";
  return s;
}

std::string report_table(const SlackDB& db) {
  std::string s;
  TextOut out{s};
  out << "== timing signoff report: " << db.circuit;
  if (!db.corner.empty()) out << " @ " << db.corner;
  out << " ==\n";
  out << (db.feasible ? "PASS" : "FAIL") << "  Tc = " << trimmed(db.tc, 6) << "  ("
      << db.num_constraints << " constraints, worst setup slack "
      << OrDash{db.worst_setup_slack()} << ", worst hold slack " << OrDash{db.worst_hold_slack()}
      << ", total borrow " << trimmed(db.total_borrow) << ")\n";
  out << "clock skew: max per-endpoint " << trimmed(db.max_skew) << ", uniform tolerance "
      << trimmed(db.skew_tolerance) << "\n";
  if (!db.overlapping_phases.empty()) {
    out << "overlapping phases:";
    for (const auto& [i, j] : db.overlapping_phases) {
      out << " phi" << i << "/phi" << j;
    }
    out << "\n";
  }

  out << "\nworst " << db.worst_endpoints.size() << " endpoints by setup slack:\n";
  TextTable endpoints({"endpoint", "kind", "phase", "arrival", "departure", "skew",
                       "setup slack", "hold slack", "borrow", "tight"});
  for (const int id : db.worst_endpoints) {
    const EndpointRecord& r = db.endpoints[static_cast<size_t>(id)];
    table_row(endpoints, r.name, to_string(r.kind),
              [&r](TextOut& o) { o << "phi" << r.phase; }, OrDash{r.arrival},
              trimmed(r.departure), trimmed(r.skew), OrDash{r.setup_slack},
              OrDash{r.hold_slack}, trimmed(r.borrow), tight_list(r, ","));
  }
  out << endpoints.to_string();

  if (!db.worst_paths.empty()) {
    out << "\nworst " << db.worst_paths.size() << " paths by propagation slack:\n";
    TextTable paths({"path", "block", "delay", "slack", "critical"});
    for (const int id : db.worst_paths) {
      const PathRecord& r = db.paths[static_cast<size_t>(id)];
      table_row(paths, [&r](TextOut& o) { o << r.from << "->" << r.to; }, r.label,
                trimmed(r.delay), trimmed(r.slack), r.tight ? "yes" : "");
    }
    out << paths.to_string();
  }

  if (!db.borrow_chains.empty()) {
    out << "\ntime-borrowing chains (total " << trimmed(db.total_borrow) << "):\n";
    for (const BorrowChain& c : db.borrow_chains) {
      out << "  " << chain_names(db, c) << "  borrow " << trimmed(c.total_borrow) << "\n";
    }
  }

  out << "\nsetup-slack distribution: p50 " << trimmed(db.setup_hist.p50) << ", p95 "
      << trimmed(db.setup_hist.p95) << ", p99 " << trimmed(db.setup_hist.p99) << ", min "
      << trimmed(db.setup_hist.min) << ", max " << trimmed(db.setup_hist.max) << "\n";
  return s;
}

std::string report_html(const Circuit& circuit, const SlackDB& db) {
  std::string s;
  s.reserve(html_bytes(circuit));
  TextOut out{s};
  std::string title = "mintc signoff: " + db.circuit;
  if (!db.corner.empty()) title += " @ " + db.corner;
  html_head(out, title);
  out << "<h1>" << html(db.circuit);
  if (!db.corner.empty()) out << " <small>@ " << html(db.corner) << "</small>";
  out << " <span class=\"badge " << (db.feasible ? "pass\">PASS &#10003;" : "fail\">FAIL &#10007;")
      << "</span></h1>\n";
  meta_line(out, db);

  out << "  <div class=\"tiles\">\n";
  tile(out, trimmed(db.tc, 4), "cycle time Tc");
  tile(out, OrDash{db.worst_setup_slack()}, "worst setup slack", db.worst_setup_slack() < 0);
  tile(out, OrDash{db.worst_hold_slack()}, "worst hold slack", db.worst_hold_slack() < 0);
  tile(out, trimmed(db.total_borrow), "total borrowed time");
  tile(out, trimmed(db.skew_tolerance), "uniform skew tolerance");
  tile(out, db.num_constraints, "constraints");
  tile(out, db.endpoints.size(), "endpoints");
  out << "  </div>\n";

  if (!db.overlapping_phases.empty()) {
    out << "<section><h2>Overlapping phases</h2><div>";
    for (size_t i = 0; i < db.overlapping_phases.size(); ++i) {
      if (i) out << ", ";
      out << "phi" << db.overlapping_phases[i].first << " &cap; phi"
          << db.overlapping_phases[i].second;
    }
    out << "</div><div class=\"note\">Overlap is legal between phases with no direct "
           "combinational path (K<sub>ij</sub> = 0) &mdash; the paper's GaAs schedule "
           "overlaps phi3 with phi1 this way.</div></section>\n";
  }

  if (db.analysis.converged && !db.analysis.fixpoint.departure.empty()) {
    out << "<section><h2>Timing diagram</h2><div class=\"figure\">";
    viz::svg_timing_diagram(out, circuit, db.schedule, db.analysis.fixpoint.departure);
    out << "</div></section>\n";
  }

  out << "<section><h2>Setup-slack distribution</h2>";
  histogram_svg(out, db.setup_hist, "var(--series-1)", "endpoints");
  out << "<div class=\"note\">p50 " << trimmed(db.setup_hist.p50) << " &middot; p95 "
      << trimmed(db.setup_hist.p95) << " &middot; p99 " << trimmed(db.setup_hist.p99)
      << " &middot; bars at or below zero (violations) in red</div></section>\n";

  out << "<section><h2>Time borrowing</h2>";
  borrow_chains_svg(out, db);
  if (db.borrow_chains.size() > 12) {
    out << "<div class=\"note\">showing 12 of " << db.borrow_chains.size()
        << " chains</div>";
  }
  out << "<div class=\"note\">Each row is a chain of latches whose eq. (17) departures "
         "derive from one another; segment width is each latch's borrow max(0, D<sub>i</sub>)."
         "</div></section>\n";

  out << "<section><h2>Worst endpoints</h2>\n";
  endpoint_table_html(out, db, db.worst_endpoints);
  out << "</section>\n";

  if (!db.worst_paths.empty()) {
    out << "<section><h2>Worst paths</h2>\n<table>\n"
           "<tr><th>path</th><th>block</th><th>delay</th><th>slack</th><th>critical</th>"
           "</tr>\n";
    for (const int id : db.worst_paths) {
      const PathRecord& r = db.paths[static_cast<size_t>(id)];
      out << "<tr><td>" << html(r.from) << " &rarr; " << html(r.to) << "</td><td>"
          << html(r.label) << "</td><td>" << trimmed(r.delay) << "</td><td"
          << (r.tight ? " class=\"bad\"" : "") << ">" << trimmed(r.slack) << "</td><td>"
          << (r.tight ? "yes" : "") << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }

  if (!db.analysis.provenance.empty()) {
    out << "<section><h2>Tight constraints</h2>\n<table>\n"
           "<tr><th>kind</th><th>constraint</th><th>slack</th></tr>\n";
    for (const sta::TightConstraint& t : db.analysis.provenance.tight) {
      out << "<tr><td>" << html(t.kind) << "</td><td>" << html(t.name) << "</td><td>"
          << trimmed(t.slack) << "</td></tr>\n";
    }
    out << "</table>\n<div class=\"note\">critical chain: "
        << html(db.analysis.provenance.chain_to_string(circuit)) << "</div></section>\n";
  }

  out << "</body>\n</html>\n";
  return s;
}

std::string signoff_json(const SignoffDB& db) {
  std::string s;
  size_t bytes = 1024 + 48 * db.merged_setup_slack.size();
  for (const SlackDB& c : db.corners) bytes += report_bytes(c);
  s.reserve(bytes);
  TextOut out{s};
  out << "{\"meta\": "
      << obs::run_metadata_json(db.corners.empty() ? obs::run_metadata()
                                                   : meta_for(db.corners.front()))
      << ",\n \"all_pass\": " << (db.all_pass ? "true" : "false") << ",\n \"corners\": ";
  list_json(out, db.corners, report_body_json, "\n  ", ",\n  ");
  out << ",\n \"merged\": {\"setup_slack\": ";
  list_json(out, db.merged_setup_slack, as_is);
  out << ", \"setup_corner\": ";
  list_json(out, db.merged_setup_corner, as_is);
  out << ", \"hold_slack\": ";
  list_json(out, db.merged_hold_slack, as_is);
  out << ", \"hold_corner\": ";
  list_json(out, db.merged_hold_corner, as_is);
  out << ", \"worst_endpoints\": ";
  list_json(out, db.merged_worst_endpoints, as_is);
  out << "}}\n";
  return s;
}

std::string signoff_table(const SignoffDB& db) {
  std::string s;
  TextOut out{s};
  out << "== multi-corner signoff: " << (db.all_pass ? "PASS" : "FAIL") << " ==\n";
  TextTable corners({"corner", "result", "worst setup", "worst hold", "total borrow"});
  for (const SlackDB& c : db.corners) {
    table_row(corners, c.corner, c.feasible ? "pass" : "FAIL", OrDash{c.worst_setup_slack()},
              OrDash{c.worst_hold_slack()}, trimmed(c.total_borrow));
  }
  out << corners.to_string();
  if (!db.corners.empty()) {
    out << "\nmerged worst-corner endpoints:\n";
    TextTable merged({"endpoint", "setup slack", "@corner", "hold slack", "@corner"});
    for (const int id : db.merged_worst_endpoints) {
      const size_t i = static_cast<size_t>(id);
      table_row(merged, db.corners.front().endpoints[i].name,
                OrDash{db.merged_setup_slack[i]}, corner_name(db, db.merged_setup_corner[i]),
                OrDash{db.merged_hold_slack[i]}, corner_name(db, db.merged_hold_corner[i]));
    }
    out << merged.to_string();
  }
  return s;
}

std::string signoff_html(const Circuit& circuit, const SignoffDB& db) {
  std::string s;
  TextOut out{s};
  html_head(out, "mintc multi-corner signoff: " + circuit.name());
  out << "<h1>" << html(circuit.name()) << " <span class=\"badge "
      << (db.all_pass ? "pass\">PASS &#10003;" : "fail\">FAIL &#10007;") << "</span></h1>\n";
  out << "<div class=\"meta\">" << html(obs::run_metadata().tool) << " &middot; "
      << db.corners.size() << " corners</div>\n";

  out << "<section><h2>Corners</h2>\n<table>\n"
         "<tr><th>corner</th><th>result</th><th>worst setup slack</th>"
         "<th>worst hold slack</th><th>total borrow</th></tr>\n";
  for (const SlackDB& c : db.corners) {
    out << "<tr><td>" << html(c.corner) << "</td><td"
        << (c.feasible ? ">pass" : " class=\"bad\">FAIL") << "</td><td"
        << (c.worst_setup_slack() < 0 ? " class=\"bad\"" : "") << ">"
        << OrDash{c.worst_setup_slack()} << "</td><td"
        << (c.worst_hold_slack() < 0 ? " class=\"bad\"" : "") << ">"
        << OrDash{c.worst_hold_slack()} << "</td><td>" << trimmed(c.total_borrow)
        << "</td></tr>\n";
  }
  out << "</table>\n</section>\n";

  if (!db.corners.empty()) {
    out << "<section><h2>Merged worst-corner endpoints</h2>\n<table>\n"
           "<tr><th>endpoint</th><th>setup slack</th><th>@corner</th><th>hold slack</th>"
           "<th>@corner</th></tr>\n";
    for (const int id : db.merged_worst_endpoints) {
      const size_t i = static_cast<size_t>(id);
      out << "<tr><td>" << html(db.corners.front().endpoints[i].name) << "</td><td"
          << (db.merged_setup_slack[i] < 0 ? " class=\"bad\"" : "") << ">"
          << OrDash{db.merged_setup_slack[i]} << "</td><td>"
          << html(corner_name(db, db.merged_setup_corner[i])) << "</td><td"
          << (db.merged_hold_slack[i] < 0 ? " class=\"bad\"" : "") << ">"
          << OrDash{db.merged_hold_slack[i]} << "</td><td>"
          << html(corner_name(db, db.merged_hold_corner[i])) << "</td></tr>\n";
    }
    out << "</table>\n</section>\n";
  }

  out << "</body>\n</html>\n";
  return s;
}

bool write_report_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    log_warn() << "report: cannot write '" << path << "'";
    return false;
  }
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  std::fclose(f);
  return ok;
}

}  // namespace mintc::report
