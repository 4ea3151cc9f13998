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
#include <string>
#include <vector>

#include "obs/export.h"
#include "report/html.h"
#include "serve/service.h"

namespace mintc::serve {

namespace {

using obs::fixed;
using obs::html;
using obs::TextOut;
using report::bucket_bars_svg;
using report::Compact;
using report::sparkline_svg;
using report::tile;

/// A byte count in B, KiB, MiB or GiB.
struct Bytes {
  double v;
};
TextOut& operator<<(TextOut& out, Bytes b) {
  constexpr double kKiB = 1024.0, kMiB = kKiB * 1024.0, kGiB = kMiB * 1024.0;
  if (b.v >= kGiB) return out << fixed(b.v / kGiB, 2) << " GiB";
  if (b.v >= kMiB) return out << fixed(b.v / kMiB, 1) << " MiB";
  if (b.v >= kKiB) return out << fixed(b.v / kKiB, 1) << " KiB";
  return out << fixed(b.v, 0) << " B";
}

/// A duration given in microseconds, in s, ms or us.
struct Us {
  double us;
};
TextOut& operator<<(TextOut& out, Us d) {
  if (d.us >= 1e6) return out << fixed(d.us / 1e6, 2) << "s";
  if (d.us >= 1e3) return out << fixed(d.us / 1e3, 1) << "ms";
  return out << fixed(d.us, 0) << "us";
}

/// Process uptime: "1d 2h 3m", "2h 3m 4s", "3m 4s" or "4.5s".
struct Uptime {
  double seconds;
};
TextOut& operator<<(TextOut& out, Uptime u) {
  const long s = static_cast<long>(u.seconds);
  if (s >= 86400) {
    return out << s / 86400 << "d " << (s / 3600) % 24 << "h " << (s / 60) % 60 << "m";
  }
  if (s >= 3600) return out << s / 3600 << "h " << (s / 60) % 60 << "m " << s % 60 << "s";
  if (s >= 60) return out << s / 60 << "m " << s % 60 << "s";
  return out << fixed(u.seconds, 1) << "s";
}

void spark(TextOut& out, std::string_view label, const std::vector<double>& series) {
  out << "    <div class=\"spark\">";
  sparkline_svg(out, series);
  out << "<div class=\"k\">" << html(label) << "</div></div>\n";
}

void histogram_block(TextOut& out, std::string_view title, const obs::Histogram& h,
                     std::string_view unit, bool as_time) {
  const auto value = [as_time](double v) {
    return [as_time, v](TextOut& o) {
      if (as_time) {
        o << Us{v};
      } else {
        o << Compact{v};
      }
    };
  };
  out << "  <section>\n  <h2>" << html(title) << "</h2>\n  <div class=\"figure\">";
  bucket_bars_svg(out, h.bounds(), h.buckets(), unit);
  out << "</div>\n  <div class=\"note\">" << h.count() << " observations &middot; p50 "
      << value(h.quantile(0.5)) << " &middot; p95 " << value(h.quantile(0.95))
      << " &middot; p99 " << value(h.quantile(0.99)) << " &middot; max " << value(h.max())
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

  std::string s;
  TextOut out{s};
  report::html_head(out, "mintc timing service — status");
  out << "<h1>timing service</h1>\n<div class=\"meta\">mintc " << html(build.version)
      << " &middot; git " << html(build.git) << " &middot; " << html(build.compiler)
      << " &middot; up " << Uptime{uptime} << "</div>\n";

  // -- Live counter tiles.
  const long requests = requests_metric_.value();
  const long errors = errors_metric_.value();
  const ResultCache::Stats cs = cache_.stats();
  const long lookups = cs.hits + cs.misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(cs.hits) / static_cast<double>(lookups) : 0.0;
  out << "  <div class=\"tiles\">\n";
  tile(out, Compact{static_cast<double>(requests)}, "requests");
  tile(out, errors, "errors", errors > 0);
  tile(out, inflight_.load(std::memory_order_relaxed), "in flight");
  tile(out, Us{latency_metric_.quantile(0.5)}, "latency p50");
  tile(out, Us{latency_metric_.quantile(0.95)}, "latency p95");
  tile(out, Us{cpu_metric_.quantile(0.95)}, "cpu p95");
  tile(out, [hit_rate](TextOut& o) { o << fixed(100.0 * hit_rate, 1) << "%"; },
       "cache hit rate");
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
        << Bytes{static_cast<double>(pool_bytes_)} << " of "
        << Bytes{static_cast<double>(config_.session_bytes)} << " budget &middot; "
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
        out << "  <tr><td>" << html(entry->key) << "</td><td>"
            << Bytes{static_cast<double>(entry->bytes)} << "</td><td>#"
            << entry->last_used << "</td></tr>\n";
      }
      out << "  </table>\n";
    }
  }
  out << "  </section>\n";

  // -- Result cache.
  out << "  <section>\n  <h2>result cache</h2>\n  <div class=\"tiles\">\n";
  tile(out, cs.hits, "hits");
  tile(out, cs.misses, "misses");
  tile(out, cs.evictions, "evictions");
  tile(out, cs.invalidations, "invalidations");
  tile(out, cs.entries, "entries");
  tile(out, Bytes{static_cast<double>(cs.bytes)}, "bytes");
  out << "  </div>\n  <div class=\"note\">budget " << Bytes{static_cast<double>(cs.budget)}
      << "</div>\n  </section>\n";

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
    tile(out, Compact{reg.gauge("pool.threads").value()}, "threads");
    tile(out, Compact{reg.gauge("pool.busy").value()}, "busy");
    tile(out, Compact{reg.gauge("pool.executed").value()}, "executed");
    tile(out, Compact{reg.gauge("serve.queue_depth").value()}, "queue depth");
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
      out << "  <tr><td>" << fixed(e.t_seconds, 1) << "s</td><td>" << html(e.verb)
          << "</td><td>" << html(e.circuit) << "</td><td>" << Us{e.wall_us} << "</td>";
      for (const auto& [name, us] : e.stages.named()) out << "<td>" << Us{us} << "</td>";
      out << "<td>" << Us{static_cast<double>(e.cpu_us)} << "</td><td>"
          << Compact{static_cast<double>(e.relaxations)} << "</td><td>"
          << (e.cached ? "hit" : "miss") << "</td>"
          << (e.ok ? "<td>ok</td>" : "<td class=\"bad\">error</td>") << "<td>";
      if (e.trace.empty()) {
        out << "&mdash;";
      } else {
        out << html(e.trace);
      }
      out << "</td></tr>\n";
    }
    out << "  </table>\n";
  }
  out << "  </section>\n";

  out << "<div class=\"meta\">generated by the status verb &middot; mintc "
      << html(build.version) << " @ " << html(build.git) << "</div>\n"
      << "</body>\n</html>\n";
  return s;
}

}  // namespace mintc::serve
