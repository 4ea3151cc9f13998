#include "report/html.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace mintc::report {

using obs::fixed;
using obs::html;

obs::TextOut& operator<<(obs::TextOut& out, Compact c) {
  const double a = std::fabs(c.v);
  const auto general = [&out](double v, int precision) {
    char buf[32];
    out.s.append(buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                                    precision).ptr);
  };
  if (a >= 1e9) {
    general(c.v / 1e9, 3);
    out << 'G';
  } else if (a >= 1e6) {
    general(c.v / 1e6, 3);
    out << 'M';
  } else if (a >= 1e3) {
    general(c.v / 1e3, 3);
    out << 'k';
  } else {
    general(c.v, 4);
  }
  return out;
}

// Shared stylesheet: palette roles as CSS custom properties, light values
// by default, dark values under prefers-color-scheme (the dashboards are
// static files — the OS setting selects the mode).
const char* dashboard_css() {
  return R"css(
  :root {
    color-scheme: light;
    --surface: #fcfcfb; --card: #ffffff; --border: #e3e2de; --grid: #e9e8e4;
    --text-1: #0b0b0b; --text-2: #52514e;
    --series-1: #2a78d6; --series-2: #eb6834;
    --good: #008300; --bad: #e34948;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface: #1a1a19; --card: #222221; --border: #3a3936; --grid: #31302d;
      --text-1: #ffffff; --text-2: #c3c2b7;
      --series-1: #3987e5; --series-2: #d95926;
      --good: #00a300; --bad: #e66767;
    }
  }
  body { background: var(--surface); color: var(--text-1);
         font: 14px/1.45 system-ui, sans-serif; margin: 24px auto; max-width: 1080px;
         padding: 0 16px; }
  h1 { font-size: 20px; margin: 0 0 4px; }
  h2 { font-size: 15px; margin: 0 0 8px; color: var(--text-1); }
  .meta { color: var(--text-2); font-size: 12px; margin-bottom: 16px; }
  .badge { display: inline-block; padding: 2px 10px; border-radius: 10px;
           font-weight: 600; font-size: 13px; color: #ffffff; vertical-align: 2px; }
  .badge.pass { background: var(--good); }
  .badge.fail { background: var(--bad); }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
  .tile { background: var(--card); border: 1px solid var(--border);
          border-radius: 8px; padding: 10px 16px; min-width: 120px; }
  .tile .v { font-size: 22px; font-weight: 600; }
  .tile .v.bad { color: var(--bad); }
  .tile .k { font-size: 12px; color: var(--text-2); }
  section { background: var(--card); border: 1px solid var(--border);
            border-radius: 8px; padding: 14px 16px; margin: 14px 0; }
  .figure { background: #ffffff; border-radius: 4px; overflow-x: auto; }
  table { border-collapse: collapse; width: 100%; font-size: 13px; }
  th { text-align: left; color: var(--text-2); font-weight: 600;
       border-bottom: 1px solid var(--border); padding: 4px 10px 4px 0; }
  td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
       font-variant-numeric: tabular-nums; }
  td.bad { color: var(--bad); font-weight: 600; }
  .note { color: var(--text-2); font-size: 12px; margin-top: 6px; }
  .sparks { display: flex; flex-wrap: wrap; gap: 16px; }
  .spark .k { font-size: 12px; color: var(--text-2); }
)css";
}

void html_head(obs::TextOut& out, std::string_view title) {
  out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
      << "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n"
      << "<title>" << html(title) << "</title>\n<style>" << dashboard_css()
      << "</style>\n</head>\n<body>\n";
}

void sparkline_svg(obs::TextOut& out, const std::vector<double>& values, double width,
                   double height) {
  out << "<svg viewBox=\"0 0 " << fixed(width, 0) << " " << fixed(height, 0) << "\" width=\""
      << fixed(width, 0) << "\" height=\"" << fixed(height, 0) << "\" role=\"img\">\n";
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (const double v : values) {
    if (!std::isfinite(v)) continue;
    lo = any ? std::min(lo, v) : v;
    hi = any ? std::max(hi, v) : v;
    any = true;
  }
  if (!any || values.size() < 2) {
    out << "  <text x=\"4\" y=\"" << fixed(height / 2.0, 0)
        << "\" fill=\"var(--text-2)\" font-size=\"11\">no data</text>\n</svg>\n";
    return;
  }
  if (hi - lo < 1e-12) hi = lo + 1.0;  // flat series draws mid-height
  const double mt = 4.0, mb = 4.0, ml = 2.0, mr = 44.0;
  const double plot_w = width - ml - mr, plot_h = height - mt - mb;
  const double dx = plot_w / static_cast<double>(values.size() - 1);
  // NaN gaps break the polyline into segments.
  bool open = false;
  double last_x = ml, last_y = mt + plot_h;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      if (open) out << "\" fill=\"none\" stroke=\"var(--series-1)\" stroke-width=\"1.5\"/>\n";
      open = false;
      continue;
    }
    const double x = ml + dx * static_cast<double>(i);
    const double y = mt + plot_h * (1.0 - (values[i] - lo) / (hi - lo));
    if (!open) out << "  <polyline points=\"";
    out << fixed(x, 1) << "," << fixed(y, 1) << " ";
    open = true;
    last_x = x;
    last_y = y;
  }
  if (open) out << "\" fill=\"none\" stroke=\"var(--series-1)\" stroke-width=\"1.5\"/>\n";
  // Label the most recent value next to the line's end.
  double last = 0.0;
  for (size_t i = values.size(); i-- > 0;) {
    if (std::isfinite(values[i])) {
      last = values[i];
      break;
    }
  }
  out << "  <circle cx=\"" << fixed(last_x, 1) << "\" cy=\"" << fixed(last_y, 1)
      << "\" r=\"2\" fill=\"var(--series-1)\"/>\n"
      << "  <text x=\"" << fixed(last_x + 5.0, 1) << "\" y=\"" << fixed(last_y + 4.0, 1)
      << "\" fill=\"var(--text-2)\" font-size=\"11\">" << Compact{last} << "</text>\n</svg>\n";
}

void bucket_bars_svg(obs::TextOut& out, const std::vector<double>& bounds,
                     const std::vector<long>& buckets, std::string_view unit) {
  size_t nb = buckets.size();
  while (nb > 1 && buckets[nb - 1] == 0) --nb;
  long total = 0, maxc = 1;
  for (size_t b = 0; b < nb; ++b) {
    total += buckets[b];
    maxc = std::max(maxc, buckets[b]);
  }
  const double w = 640.0, hgt = 160.0, ml = 40.0, mr = 10.0, mt = 14.0, mb = 30.0;
  out << "<svg viewBox=\"0 0 " << fixed(w, 0) << " " << fixed(hgt, 0) << "\" width=\""
      << fixed(w, 0) << "\" role=\"img\">\n";
  if (total == 0 || nb == 0) {
    out << "  <text x=\"20\" y=\"30\" fill=\"var(--text-2)\" font-size=\"12\">no data"
           "</text>\n</svg>\n";
    return;
  }
  const double plot_w = w - ml - mr, plot_h = hgt - mt - mb;
  const double bw = plot_w / static_cast<double>(nb);
  const auto lo_edge = [&](size_t b) { return b == 0 ? 0.0 : bounds[b - 1]; };
  const auto hi_edge = [&](size_t b) {  // "+inf" past the last bound
    if (b < bounds.size()) {
      out << Compact{bounds[b]};
    } else {
      out << "+inf";
    }
  };
  for (int g = 0; g <= 4; ++g) {
    const double y = mt + plot_h * g / 4.0;
    out << "  <line x1=\"" << fixed(ml, 1) << "\" y1=\"" << fixed(y, 1) << "\" x2=\""
        << fixed(w - mr, 1) << "\" y2=\"" << fixed(y, 1) << "\" stroke=\"var(--grid)\"/>\n";
  }
  out << "  <text x=\"4\" y=\"" << fixed(mt + 4.0, 1)
      << "\" fill=\"var(--text-2)\" font-size=\"11\">" << maxc << "</text>\n";
  for (size_t b = 0; b < nb; ++b) {
    const double bar_h = plot_h * static_cast<double>(buckets[b]) / static_cast<double>(maxc);
    const double x = ml + bw * static_cast<double>(b) + 1.0;
    const double y = mt + plot_h - bar_h;
    out << "  <rect x=\"" << fixed(x, 1) << "\" y=\"" << fixed(y, 1) << "\" width=\""
        << fixed(std::max(1.0, bw - 2.0), 1) << "\" height=\"" << fixed(bar_h, 1)
        << "\" rx=\"2\" fill=\"var(--series-1)\"><title>(" << Compact{lo_edge(b)} << ", ";
    hi_edge(b);
    out << "] " << html(unit) << ": " << buckets[b] << "</title></rect>\n";
  }
  out << "  <line x1=\"" << fixed(ml, 1) << "\" y1=\"" << fixed(mt + plot_h, 1) << "\" x2=\""
      << fixed(w - mr, 1) << "\" y2=\"" << fixed(mt + plot_h, 1)
      << "\" stroke=\"var(--border)\"/>\n";
  const size_t step = std::max<size_t>(1, nb / 6);
  for (size_t k = 0; k < nb; k += step) {
    const double x = ml + bw * static_cast<double>(k) + bw / 2.0;
    out << "  <text x=\"" << fixed(x, 1) << "\" y=\"" << fixed(hgt - mb + 14.0, 1)
        << "\" text-anchor=\"middle\" fill=\"var(--text-2)\" font-size=\"11\">";
    hi_edge(k);
    out << "</text>\n";
  }
  out << "</svg>\n";
}

}  // namespace mintc::report
