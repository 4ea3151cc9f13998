#include "viz/svg.h"

#include <algorithm>

namespace mintc::viz {

namespace {

using obs::trimmed;

constexpr double kRowHeight = 26.0;  // one clock phase or element strip

void rect(obs::TextOut& out, double x, double y, double w, double h, const char* fill,
          double opacity = 1.0) {
  if (w <= 0.0) return;
  out << "  <rect x=\"" << trimmed(x, 2) << "\" y=\"" << trimmed(y, 2) << "\" width=\""
      << trimmed(w, 2) << "\" height=\"" << trimmed(h, 2) << "\" fill=\"" << fill
      << "\" fill-opacity=\"" << trimmed(opacity, 2) << "\"/>\n";
}

/// Open a label at (x, y); the caller writes its text and "</text>\n".
obs::TextOut& text_at(obs::TextOut& out, double x, double y) {
  return out << "  <text x=\"" << trimmed(x, 2) << "\" y=\"" << trimmed(y, 2)
             << "\" font-family=\"monospace\" font-size=\"12\">";
}

void vline(obs::TextOut& out, double x, double y0, double y1) {
  out << "  <line x1=\"" << trimmed(x, 2) << "\" y1=\"" << trimmed(y0, 2) << "\" x2=\""
      << trimmed(x, 2) << "\" y2=\"" << trimmed(y1, 2)
      << "\" stroke=\"#999\" stroke-dasharray=\"4 3\"/>\n";
}

}  // namespace

void svg_timing_diagram(obs::TextOut& out, const Circuit& circuit, const ClockSchedule& schedule,
                        const std::vector<double>& departure, const SvgOptions& options) {
  const double horizon = schedule.cycle * options.cycles;
  const double margin = 90.0;
  const double plot_w = options.width - margin - 10.0;
  const int rows = schedule.num_phases() + circuit.num_elements();
  const double height = (rows + 2) * kRowHeight + 20.0;
  const auto x_of = [&](double t) { return margin + t / horizon * plot_w; };

  out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << trimmed(options.width, 0)
      << "\" height=\"" << trimmed(height, 0) << "\">\n";
  out << "  <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  if (horizon <= 0.0) {
    out << "</svg>\n";
    return;
  }

  double y = 10.0;
  // Clock waveforms.
  for (int p = 1; p <= schedule.num_phases(); ++p) {
    text_at(out, 5.0, y + kRowHeight * 0.7) << "phi" << p << "</text>\n";
    for (int cyc = 0; cyc < options.cycles + 1; ++cyc) {
      const double s = schedule.s(p) + cyc * schedule.cycle;
      const double e = std::min(s + schedule.T(p), horizon);
      if (s >= horizon) continue;
      rect(out, x_of(s), y + 4.0, x_of(e) - x_of(s), kRowHeight - 10.0, "#4477aa");
    }
    y += kRowHeight;
  }
  // Element strips.
  for (int i = 0; i < circuit.num_elements(); ++i) {
    const Element& e = circuit.element(i);
    text_at(out, 5.0, y + kRowHeight * 0.7) << obs::html(e.name) << "</text>\n";
    for (int cyc = 0; cyc < options.cycles + 1; ++cyc) {
      const double dep =
          schedule.s(e.phase) + departure[static_cast<size_t>(i)] + cyc * schedule.cycle;
      if (dep > horizon) continue;
      const double edge = schedule.s(e.phase) + cyc * schedule.cycle;
      // Waiting gap (light), latch delay (dark shade), combinational (mid).
      rect(out, x_of(edge), y + 8.0, x_of(dep) - x_of(edge), kRowHeight - 18.0,
           "#dddddd");
      rect(out, x_of(dep), y + 4.0, x_of(std::min(dep + e.dq, horizon)) - x_of(dep),
           kRowHeight - 10.0, "#555555");
      double longest = 0.0;
      for (const int pe : circuit.fanout(i)) {
        longest = std::max(longest, circuit.path(pe).delay);
      }
      if (longest > 0.0 && dep + e.dq < horizon) {
        rect(out, x_of(dep + e.dq), y + 4.0,
             x_of(std::min(dep + e.dq + longest, horizon)) - x_of(dep + e.dq),
             kRowHeight - 10.0, "#cc6677", 0.8);
      }
    }
    y += kRowHeight;
  }
  // Cycle boundaries.
  for (int cyc = 0; cyc <= options.cycles; ++cyc) {
    vline(out, x_of(std::min(cyc * schedule.cycle, horizon)), 6.0, y);
  }
  text_at(out, margin, y + kRowHeight * 0.7)
      << "Tc = " << trimmed(schedule.cycle) << "  (" << options.cycles << " cycles)</text>\n";
  out << "</svg>\n";
}

std::string svg_timing_diagram(const Circuit& circuit, const ClockSchedule& schedule,
                               const std::vector<double>& departure,
                               const SvgOptions& options) {
  std::string s;
  obs::TextOut out{s};
  svg_timing_diagram(out, circuit, schedule, departure, options);
  return s;
}

}  // namespace mintc::viz
