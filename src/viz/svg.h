// SVG timing-diagram output — the library's "graphical output routines"
// (paper Section V). Produces a standalone .svg with clock waveforms and
// per-element strips, same semantics as the ASCII renderer.
#pragma once

#include <string>
#include <vector>

#include "model/circuit.h"
#include "obs/export.h"

namespace mintc::viz {

struct SvgOptions {
  double width = 900.0;
  int cycles = 2;
};

/// Render a full timing diagram (clock waveforms + element strips) as SVG.
/// Element names are HTML-escaped. The first form appends to `out` (the
/// report dashboard embeds the figure this way); the second returns it.
void svg_timing_diagram(obs::TextOut& out, const Circuit& circuit, const ClockSchedule& schedule,
                        const std::vector<double>& departure, const SvgOptions& options = {});
std::string svg_timing_diagram(const Circuit& circuit, const ClockSchedule& schedule,
                               const std::vector<double>& departure,
                               const SvgOptions& options = {});

}  // namespace mintc::viz
