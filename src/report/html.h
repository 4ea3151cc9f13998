// Shared building blocks for the self-contained HTML dashboards: the signoff
// report (report/export.cpp) and the serve layer's live status page
// (serve/status.cpp) render with the same stylesheet and helpers so the two
// surfaces look and behave identically (light/dark via the OS setting, no
// external assets, no script dependencies). Every helper appends to the
// page's one obs::TextOut.
#pragma once

#include <string_view>
#include <vector>

#include "obs/export.h"

namespace mintc::report {

/// The dashboard stylesheet: palette roles as CSS custom properties (light
/// values by default, dark under prefers-color-scheme), tiles, sections,
/// tables, badges.
const char* dashboard_css();

/// "<!DOCTYPE html>...<style>...</style></head><body>" with `title` escaped
/// into <title>. Callers append content and close </body></html>.
void html_head(obs::TextOut& out, std::string_view title);

/// One metric tile (value over a small caption) into a .tiles flex row;
/// `value` is anything the writer takes.
template <class Value>
void tile(obs::TextOut& out, const Value& value, std::string_view key, bool bad = false) {
  out << "    <div class=\"tile\"><div class=\"v" << (bad ? " bad" : "") << "\">" << value
      << "</div><div class=\"k\">" << key << "</div></div>\n";
}

/// A compact axis/tooltip number: 2500000 -> "2.5M", 1500 -> "1.5k"
/// (printf's %.3g with a suffix from 1e3 up, %.4g below).
struct Compact {
  double v;
};
obs::TextOut& operator<<(obs::TextOut& out, Compact c);

/// Inline-SVG sparkline of a series, oldest first; NaN entries are gaps.
/// Renders "no data" when nothing is finite. The final value is labeled.
void sparkline_svg(obs::TextOut& out, const std::vector<double>& values, double width = 240.0,
                   double height = 48.0);

/// Inline-SVG vertical-bar chart of histogram bucket counts. `bounds` are
/// the ascending upper bounds; `buckets` has bounds.size()+1 entries (last
/// = +inf). Trailing empty buckets are dropped for data-fit x bounds;
/// tooltips carry exact ranges in `unit`.
void bucket_bars_svg(obs::TextOut& out, const std::vector<double>& bounds,
                     const std::vector<long>& buckets, std::string_view unit);

}  // namespace mintc::report
