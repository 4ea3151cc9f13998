// The `status` verb: the service rendered as a single self-contained HTML
// document — no external assets, no scripts, same stylesheet as the signoff
// dashboard (report/html.h). One glance answers "is the server healthy,
// where is the time going, and which requests were expensive":
//
//   * identity tiles (version/git/compiler/uptime) and live counters
//   * HistoryRing sparklines: request rate, latency/CPU quantiles, cache
//   * the latency / attributed-CPU / engine-work histograms as bar charts
//   * session-pool and cache tables, and a transport row (pool threads,
//     busy, executed, queue depth) while a transport has installed its
//     runtime sampler
//   * the top-K slowest requests with their stage times, trace ids and
//     CostAccount totals
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "report/html.h"
#include "serve/service.h"

namespace mintc::serve {

namespace {

using report::bucket_bars_svg;
using report::html_escape;
using report::sparkline_svg;
using report::tile;

std::string fmt(double v, int digits = 1) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string fmt_long(long v) { return std::to_string(v); }

/// "1.5k" / "2.5M" — same rounding as the shared SVG axis labels.
std::string fmt_compact(double v) {
  const double a = std::fabs(v);
  char buf[48];
  if (a >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.3gG", v / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3gM", v / 1e6);
  } else if (a >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.3gk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  }
  return buf;
}

std::string fmt_bytes(double v) {
  char buf[48];
  if (v >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.2f GiB", v / (1024.0 * 1024.0 * 1024.0));
  } else if (v >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f MiB", v / (1024.0 * 1024.0));
  } else if (v >= 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", v / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f B", v);
  }
  return buf;
}

std::string fmt_us(double us) {
  char buf[48];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fs", us / 1e6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fus", us);
  }
  return buf;
}

std::string fmt_uptime(double seconds) {
  const long s = static_cast<long>(seconds);
  char buf[64];
  if (s >= 86400) {
    std::snprintf(buf, sizeof buf, "%ldd %ldh %ldm", s / 86400, (s / 3600) % 24,
                  (s / 60) % 60);
  } else if (s >= 3600) {
    std::snprintf(buf, sizeof buf, "%ldh %ldm %lds", s / 3600, (s / 60) % 60, s % 60);
  } else if (s >= 60) {
    std::snprintf(buf, sizeof buf, "%ldm %lds", s / 60, s % 60);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fs", seconds);
  }
  return buf;
}

void spark(std::ostringstream& out, const std::string& label,
           const std::vector<double>& series) {
  out << "    <div class=\"spark\">" << sparkline_svg(series) << "<div class=\"k\">"
      << html_escape(label) << "</div></div>\n";
}

void histogram_block(std::ostringstream& out, const std::string& title,
                     const obs::Histogram& h, const std::string& unit, bool as_time) {
  out << "  <section>\n  <h2>" << html_escape(title) << "</h2>\n  <div class=\"figure\">"
      << bucket_bars_svg(h.bounds(), h.buckets(), unit) << "</div>\n  <div class=\"note\">"
      << h.count() << " observations &middot; p50 "
      << (as_time ? fmt_us(h.quantile(0.5)) : fmt_compact(h.quantile(0.5))) << " &middot; p95 "
      << (as_time ? fmt_us(h.quantile(0.95)) : fmt_compact(h.quantile(0.95)))
      << " &middot; p99 "
      << (as_time ? fmt_us(h.quantile(0.99)) : fmt_compact(h.quantile(0.99)))
      << " &middot; max " << (as_time ? fmt_us(h.max()) : fmt_compact(h.max()))
      << "</div>\n  </section>\n";
}

}  // namespace

Expected<Json> TimingService::verb_status(const Json& req) {
  const long top = std::clamp(req.long_or("top", 16), 1L, 100L);
  Json result = Json::object();
  result.set("format", Json("html"));
  result.set("content", Json(status_html(static_cast<int>(top))));
  return result;
}

std::string TimingService::status_html(int top_n) {
  sample_runtime_gauges();
  const obs::BuildInfo& build = obs::build_info();
  const double uptime = uptime_seconds();

  std::ostringstream out;
  out << report::html_head("mintc timing service — status");
  out << "<h1>timing service</h1>\n<div class=\"meta\">mintc " << html_escape(build.version)
      << " &middot; git " << html_escape(build.git) << " &middot; "
      << html_escape(build.compiler) << " &middot; up " << fmt_uptime(uptime) << "</div>\n";

  // -- Live counter tiles.
  const long requests = requests_metric_.value();
  const long errors = errors_metric_.value();
  const ResultCache::Stats cs = cache_.stats();
  const long lookups = cs.hits + cs.misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(cs.hits) / static_cast<double>(lookups) : 0.0;
  out << "  <div class=\"tiles\">\n";
  tile(out, fmt_compact(static_cast<double>(requests)), "requests");
  tile(out, fmt_long(errors), "errors", errors > 0);
  tile(out, fmt_long(inflight_.load(std::memory_order_relaxed)), "in flight");
  tile(out, fmt_us(latency_metric_.quantile(0.5)), "latency p50");
  tile(out, fmt_us(latency_metric_.quantile(0.95)), "latency p95");
  tile(out, fmt_us(cpu_metric_.quantile(0.95)), "cpu p95");
  tile(out, fmt(100.0 * hit_rate, 1) + "%", "cache hit rate");
  out << "  </div>\n";

  // -- Sparklines from the HistoryRing (rates/quantiles, oldest first).
  out << "  <section>\n  <h2>recent history</h2>\n  <div class=\"sparks\">\n";
  spark(out, "requests/s", history_.series("rps"));
  spark(out, "latency p50 (us)", history_.series("latency_p50_us"));
  spark(out, "latency p95 (us)", history_.series("latency_p95_us"));
  spark(out, "cpu p50 (us)", history_.series("cpu_p50_us"));
  spark(out, "in flight", history_.series("inflight"));
  spark(out, "cache bytes", history_.series("cache_bytes"));
  out << "  </div>\n  <div class=\"note\">" << history_.size() << " of " << history_.capacity()
      << " samples buffered (" << history_.total_recorded() << " recorded)</div>\n"
      << "  </section>\n";

  // -- Distribution charts.
  histogram_block(out, "request latency (us)", latency_metric_, "us", true);
  histogram_block(out, "attributed CPU per request (us)", cpu_metric_, "us", true);
  histogram_block(out, "edge relaxations per request", relaxations_metric_, "relaxations",
                  false);

  // -- Session pool.
  out << "  <section>\n  <h2>session pool</h2>\n";
  {
    const std::lock_guard<std::mutex> lk(map_mu_);
    out << "  <div class=\"note\">" << pool_.size() << " sessions &middot; "
        << fmt_bytes(static_cast<double>(pool_bytes_)) << " of "
        << fmt_bytes(static_cast<double>(config_.session_bytes)) << " budget &middot; "
        << pool_stats_.loads << " loads &middot; " << pool_stats_.evictions
        << " evictions</div>\n";
    std::vector<const Entry*> sorted;
    sorted.reserve(pool_.size());
    for (const auto& [k, entry] : pool_) sorted.push_back(entry.get());
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry* a, const Entry* b) { return a->last_used > b->last_used; });
    if (!sorted.empty()) {
      out << "  <table>\n  <tr><th>circuit</th><th>bytes</th><th>recency</th></tr>\n";
      for (const Entry* entry : sorted) {
        out << "  <tr><td>" << html_escape(entry->key) << "</td><td>"
            << fmt_bytes(static_cast<double>(entry->bytes)) << "</td><td>#"
            << entry->last_used << "</td></tr>\n";
      }
      out << "  </table>\n";
    }
  }
  out << "  </section>\n";

  // -- Result cache.
  out << "  <section>\n  <h2>result cache</h2>\n  <div class=\"tiles\">\n";
  tile(out, fmt_long(cs.hits), "hits");
  tile(out, fmt_long(cs.misses), "misses");
  tile(out, fmt_long(cs.evictions), "evictions");
  tile(out, fmt_long(cs.invalidations), "invalidations");
  tile(out, fmt_long(static_cast<long>(cs.entries)), "entries");
  tile(out, fmt_bytes(static_cast<double>(cs.bytes)), "bytes");
  out << "  </div>\n  <div class=\"note\">budget "
      << fmt_bytes(static_cast<double>(cs.budget)) << "</div>\n  </section>\n";

  // -- Transport: the gauges its sampler published at the top of this
  // render, shown only while a transport has installed one.
  bool transport = false;
  {
    const std::lock_guard<std::mutex> lk(sampler_mu_);
    transport = static_cast<bool>(runtime_sampler_);
  }
  if (transport) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    out << "  <section>\n  <h2>transport</h2>\n  <div class=\"tiles\">\n";
    tile(out, fmt_compact(reg.gauge("pool.threads").value()), "threads");
    tile(out, fmt_compact(reg.gauge("pool.busy").value()), "busy");
    tile(out, fmt_compact(reg.gauge("pool.executed").value()), "executed");
    tile(out, fmt_compact(reg.gauge("serve.queue_depth").value()), "queue depth");
    out << "  </div>\n  </section>\n";
  }

  // -- Top-K slow requests with their attribution — each row's trace id is
  // the join key into the audit log and the trace verb's records.
  const std::vector<RequestRecord> slow = slow_requests();
  out << "  <section>\n  <h2>slowest requests</h2>\n";
  if (slow.empty()) {
    out << "  <div class=\"note\">none yet</div>\n";
  } else {
    out << "  <table>\n  <tr><th>at</th><th>verb</th><th>circuit</th><th>wall</th>";
    for (const auto& [name, us] : StageTimes{}.named()) out << "<th>" << name << "</th>";
    out << "<th>cpu</th><th>relaxations</th><th>cache</th><th>ok</th><th>trace</th></tr>\n";
    int rows = 0;
    for (const RequestRecord& e : slow) {
      if (rows++ >= top_n) break;
      out << "  <tr><td>" << fmt(e.t_seconds, 1) << "s</td><td>" << html_escape(e.verb)
          << "</td><td>" << html_escape(e.circuit) << "</td><td>" << fmt_us(e.wall_us)
          << "</td>";
      for (const auto& [name, us] : e.stages.named()) out << "<td>" << fmt_us(us) << "</td>";
      out << "<td>" << fmt_us(static_cast<double>(e.cpu_us)) << "</td><td>"
          << fmt_compact(static_cast<double>(e.relaxations)) << "</td><td>"
          << (e.cached ? "hit" : "miss") << "</td>"
          << (e.ok ? "<td>ok</td>" : "<td class=\"bad\">error</td>") << "<td>"
          << (e.trace.empty() ? "&mdash;" : html_escape(e.trace)) << "</td></tr>\n";
    }
    out << "  </table>\n";
  }
  out << "  </section>\n";

  out << "<div class=\"meta\">generated by the status verb &middot; mintc "
      << html_escape(build.version) << " @ " << html_escape(build.git) << "</div>\n"
      << "</body>\n</html>\n";
  return out.str();
}

}  // namespace mintc::serve
