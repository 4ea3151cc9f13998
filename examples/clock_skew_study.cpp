// Extension study: the constraint classes the paper says "can be easily
// added to this minimum set" — clock skew, minimum phase widths and
// minimum phase separation — plus conservative hold constraints.
//
// The centerpiece is the per-design SKEW-TOLERANCE CURVE Tc*(σ): every
// element's first-class skew field is swept uniformly through the
// parametric-LP machinery (opt::sweep_clock_skew solves each sample's LP
// cold), and the recovered piecewise-linear segments show how much clock
// uncertainty each design absorbs per nanosecond of cycle time.
// Results are printed as text tables and written as JSON
// (skew_tolerance.json, or argv[1]) for plotting; see EXPERIMENTS.md.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/strings.h"
#include "base/table.h"
#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "lp/parametric.h"
#include "opt/mlp.h"
#include "opt/parametric.h"

using namespace mintc;

namespace {

double solve_with(const opt::GeneratorOptions& gen) {
  opt::MlpOptions options;
  options.generator = gen;
  const auto r = opt::minimize_cycle_time(circuits::example1(80.0), options);
  return r ? r->min_cycle : -1.0;
}

struct DesignCurve {
  std::string name;
  double tc0 = 0.0;           // Tc* at zero skew
  lp::ParametricResult sweep; // Tc*(σ) samples + recovered segments
};

DesignCurve skew_curve(const std::string& name, const Circuit& circuit, int samples) {
  DesignCurve curve;
  curve.name = name;
  const auto base = opt::minimize_cycle_time(circuit);
  curve.tc0 = base ? base->min_cycle : -1.0;
  // Sweep σ up to a quarter of the nominal cycle — comfortably past any
  // realistic clock-network uncertainty, wide enough to cross curve knees.
  const double hi = curve.tc0 > 0.0 ? 0.25 * curve.tc0 : 1.0;
  curve.sweep = opt::sweep_clock_skew(circuit, 0.0, hi, samples);
  return curve;
}

std::string curves_json(const std::vector<DesignCurve>& curves) {
  std::ostringstream out;
  out << "{\"designs\": [";
  for (size_t d = 0; d < curves.size(); ++d) {
    const DesignCurve& c = curves[d];
    out << (d ? ",\n " : "\n ") << "{\"name\": \"" << c.name
        << "\", \"tc0\": " << fmt_time(c.tc0, 6) << ", \"points\": [";
    for (size_t i = 0; i < c.sweep.points.size(); ++i) {
      const lp::ParametricPoint& p = c.sweep.points[i];
      if (i) out << ", ";
      out << "{\"skew\": " << fmt_time(p.theta, 6)
          << ", \"tc\": " << fmt_time(p.objective, 6) << ", \"feasible\": "
          << (p.status == lp::SolveStatus::kOptimal ? "true" : "false") << "}";
    }
    out << "], \"segments\": [";
    for (size_t i = 0; i < c.sweep.segments.size(); ++i) {
      const lp::ParametricSegment& s = c.sweep.segments[i];
      if (i) out << ", ";
      out << "{\"begin\": " << fmt_time(s.theta_begin, 6)
          << ", \"end\": " << fmt_time(s.theta_end, 6)
          << ", \"slope\": " << fmt_time(s.slope, 6) << "}";
    }
    out << "]}";
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== per-design skew-tolerance curves Tc*(sigma) ==\n\n");

  std::vector<DesignCurve> curves;
  curves.push_back(skew_curve("example1", circuits::example1(80.0), 21));
  curves.push_back(skew_curve("example2", circuits::example2(), 21));
  curves.push_back(skew_curve("gaas", circuits::gaas_datapath(), 21));

  for (const DesignCurve& c : curves) {
    std::printf("-- %s (Tc* = %s ns at sigma = 0) --\n", c.name.c_str(),
                fmt_time(c.tc0, 2).c_str());
    TextTable t({"sigma [ns]", "Tc* [ns]", "penalty [ns]"});
    for (const lp::ParametricPoint& p : c.sweep.points) {
      if (p.status != lp::SolveStatus::kOptimal) {
        t.add_row({fmt_time(p.theta, 3), "infeasible", "-"});
        continue;
      }
      t.add_row({fmt_time(p.theta, 3), fmt_time(p.objective, 2),
                 "+" + fmt_time(p.objective - c.tc0, 2)});
    }
    std::printf("%s", t.to_string().c_str());
    if (!c.sweep.segments.empty()) {
      std::printf("linear segments of Tc*(sigma):\n");
      for (const lp::ParametricSegment& s : c.sweep.segments) {
        std::printf("  sigma in [%s, %s]: slope %s ns/ns\n",
                    fmt_time(s.theta_begin, 3).c_str(), fmt_time(s.theta_end, 3).c_str(),
                    fmt_time(s.slope, 3).c_str());
      }
    }
    std::printf("\n");
  }

  const std::string json_path = argc > 1 ? argv[1] : "skew_tolerance.json";
  std::ofstream(json_path) << curves_json(curves);
  std::printf("wrote %s\n\n", json_path.c_str());

  std::printf("== other clock margin extensions on example 1 (nominal Tc* = 110) ==\n\n");

  TextTable width({"min phase width [ns]", "Tc* [ns]"});
  for (const double w : {0.0, 20.0, 40.0, 50.0, 60.0}) {
    opt::GeneratorOptions gen;
    gen.min_phase_width = w;
    width.add_row({fmt_time(w), fmt_time(solve_with(gen), 2)});
  }
  std::printf("%s\n", width.to_string().c_str());

  TextTable sep({"min phase separation [ns]", "Tc* [ns]"});
  for (const double g : {0.0, 5.0, 10.0, 20.0}) {
    opt::GeneratorOptions gen;
    gen.min_phase_separation = g;
    sep.add_row({fmt_time(g), fmt_time(solve_with(gen), 2)});
  }
  std::printf("%s\n", sep.to_string().c_str());

  // Hold margins: give the latches a hold requirement and min delays, then
  // turn the conservative linear hold rows on.
  TextTable hold({"hold time [ns]", "Tc* with hold rows [ns]"});
  for (const double h : {0.0, 2.0, 5.0}) {
    Circuit c = circuits::example1(80.0);
    for (int i = 0; i < c.num_elements(); ++i) {
      c.element(i).hold = h;
      c.element(i).dq_min = 5.0;
    }
    opt::MlpOptions options;
    options.generator.hold_constraints = true;
    const auto r = opt::minimize_cycle_time(c, options);
    hold.add_row({fmt_time(h), r ? fmt_time(r->min_cycle, 2) : "infeasible"});
  }
  std::printf("%s\n", hold.to_string().c_str());
  std::printf("every margin tightens the LP, so Tc* is monotone in each knob —\n"
              "the price of robustness is visible directly in the schedule.\n");
  return 0;
}
