#include "sta/corners.h"

#include <algorithm>

namespace mintc::sta {

std::vector<Corner> standard_corners(double spread) {
  return {
      {"slow", 1.0 + spread, 1.0 + spread},
      {"typical", 1.0, 1.0},
      {"fast", 1.0 - spread, 1.0 - spread},
  };
}

Circuit derate(const Circuit& circuit, const Corner& corner) {
  Circuit out(circuit.name() + "@" + corner.name, circuit.num_phases());
  for (const Element& e : circuit.elements()) {
    // `Element d = e` carries skew across unscaled: σ is a clock-network
    // budget, not a silicon delay, so corners do not derate it.
    Element d = e;
    d.setup = e.setup * corner.delay_scale;
    d.dq = e.dq * corner.delay_scale;
    if (e.dq_min >= 0.0) {
      d.dq_min = e.dq_min * corner.min_scale;
    } else {
      d.dq_min = e.dq * corner.min_scale;
    }
    // Keep min <= max even for unusual corner settings.
    if (d.dq_min > d.dq) d.dq_min = d.dq;
    out.add_element(std::move(d));
  }
  for (const CombPath& p : circuit.paths()) {
    const double max_d = p.delay * corner.delay_scale;
    const double min_d = std::min(p.min_delay * corner.min_scale, max_d);
    out.add_path(p.from, p.to, max_d, min_d, p.label);
  }
  return out;
}

}  // namespace mintc::sta
