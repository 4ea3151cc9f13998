// Corner sign-off flow: design at the slow corner, verify everywhere.
//
// The exact MLP optimum has zero margin by construction — a schedule tuned
// to typical delays fails the moment silicon comes out slow. This example
// shows the production-style loop on the GaAs datapath model:
//   1. optimize the slow-corner circuit (delays derated up);
//   2. verify the resulting schedule at slow/typical/fast corners,
//      including the short-path (hold) checks that fast corners stress;
//   3. report the frequency cost of the margin.
//
// With --report-dir <dir>, also emits the full signoff package there: one
// self-contained HTML dashboard per corner plus the merged signoff JSON.
#include <cstdio>
#include <filesystem>
#include <string>

#include "base/strings.h"
#include "base/table.h"
#include "circuits/gaas.h"
#include "opt/mlp.h"
#include "report/export.h"
#include "report/slackdb.h"
#include "sta/corners.h"

using namespace mintc;

int main(int argc, char** argv) {
  std::string report_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--report-dir" && i + 1 < argc) report_dir = argv[++i];
  }
  std::printf("== corner sign-off on the GaAs datapath ==\n\n");
  const Circuit c = circuits::gaas_datapath();
  const double spread = 0.08;  // +-8%% process/voltage/temperature spread

  // Corner checks include the short-path (hold) test: a token racing
  // through fast bypass logic must not reach an open latch before the
  // previous token is safely stored. Wide phases make that harder, so the
  // design runs include the conservative hold rows AND refine each optimum
  // to minimum duty cycle (the narrowest phases that still work).
  opt::MlpOptions design_opts;
  design_opts.generator.hold_constraints = true;

  const auto design_at = [&](const Circuit& target) -> Expected<opt::MlpResult> {
    const auto base = opt::minimize_cycle_time(target, design_opts);
    if (!base) return base;
    return opt::refine_schedule(target, base->min_cycle,
                                opt::SecondaryObjective::kMinTotalWidth, design_opts);
  };

  // Naive: optimize at typical, then check all corners.
  const auto typical = design_at(c);
  if (!typical) {
    std::printf("error: %s\n", typical.error().to_string().c_str());
    return 1;
  }
  const report::SignoffDB naive =
      report::build_signoff(c, typical->schedule, sta::standard_corners(spread));
  std::printf("typical-corner design (Tc = %s):\n%s\n",
              fmt_time(typical->min_cycle, 4).c_str(), report::signoff_table(naive).c_str());

  // Robust: optimize the slow-corner circuit (fast-corner mins), then check
  // all corners under it.
  Circuit slow = sta::derate(c, {"slow", 1.0 + spread, 1.0 - spread});
  const auto robust = design_at(slow);
  if (!robust) {
    std::printf("error: %s\n", robust.error().to_string().c_str());
    return 1;
  }
  const report::SignoffDB signoff =
      report::build_signoff(c, robust->schedule, sta::standard_corners(spread));
  std::printf("slow-corner design (Tc = %s):\n%s\n",
              fmt_time(robust->min_cycle, 4).c_str(), report::signoff_table(signoff).c_str());

  TextTable table({"design point", "Tc [ns]", "freq [MHz]", "all corners pass?"});
  table.add_row({"typical (no margin)", fmt_time(typical->min_cycle, 4),
                 fmt_time(1000.0 / typical->min_cycle, 1), naive.all_pass ? "yes" : "NO"});
  table.add_row({"slow corner (+8% margin)", fmt_time(robust->min_cycle, 4),
                 fmt_time(1000.0 / robust->min_cycle, 1), signoff.all_pass ? "yes" : "NO"});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("margin costs %s%% of frequency — the price of sign-off robustness.\n",
              fmt_time(100.0 * (robust->min_cycle / typical->min_cycle - 1.0), 1).c_str());

  if (!report_dir.empty()) {
    // Signoff package for the robust design point: one dashboard per corner
    // plus the merged worst-corner JSON.
    std::error_code ec;
    std::filesystem::create_directories(report_dir, ec);
    report::write_report_file(report_dir + "/signoff.json", report::signoff_json(signoff));
    report::write_report_file(report_dir + "/signoff.html", report::signoff_html(c, signoff));
    for (const report::SlackDB& corner : signoff.corners) {
      report::write_report_file(report_dir + "/corner_" + corner.corner + ".html",
                                report::report_html(c, corner));
    }
    std::printf("\nwrote signoff package (%zu corner dashboards) to %s/\n",
                signoff.corners.size(), report_dir.c_str());
  }
  return signoff.all_pass ? 0 : 1;
}
