// Byte pins for every text exporter: report_json/table/html,
// signoff_json/table/html and viz::svg_timing_diagram, on the paper's three
// circuits and on svcbench dashboard_read's 504-latch design. Each output is
// hashed with FNV-1a after blanking its wall-clock numbers (the header's
// "wall_seconds" and the HTML report's "built in ... ms", as ServeFrameGolden
// blanks them). The constants were recorded before the exporters moved from
// std::ostringstream and snprintf to one append-only writer and to_chars; a
// rendering change that moves one byte of one view changes its hash.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>

#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "circuits/synthetic.h"
#include "obs/export.h"
#include "opt/mlp.h"
#include "parser/lct.h"
#include "report/export.h"
#include "sta/analysis.h"
#include "sta/corners.h"
#include "viz/svg.h"

namespace mintc::report {
namespace {

/// Blank the number after every "seconds" key and after "built in ".
std::string scrub_volatile(std::string text) {
  const auto blank_number_after = [&text](const std::string& marker, bool skip_quoting) {
    size_t pos = 0;
    while ((pos = text.find(marker, pos)) != std::string::npos) {
      size_t p = pos + marker.size();
      while (skip_quoting && p < text.size() &&
             (text[p] == '"' || text[p] == ':' || text[p] == ' ')) {
        ++p;
      }
      const size_t start = p;
      while (p < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[p])) || text[p] == '.' ||
              text[p] == 'e' || text[p] == 'E' || text[p] == '+' || text[p] == '-')) {
        ++p;
      }
      if (p > start) text.replace(start, p - start, "0");
      pos += marker.size();
    }
  };
  blank_number_after("seconds", true);
  blank_number_after("built in ", false);
  return text;
}

/// The smallest cycle time at which the evenly spaced schedule passes, by
/// the bisection svcbench's workloads use, stretched by their 1.25.
ClockSchedule dashboard_schedule(const Circuit& c) {
  const auto feasible = [&](double tc) {
    return sta::check_schedule(c, symmetric_schedule(c.num_phases(), tc)).feasible;
  };
  double hi = 1.0;
  while (!feasible(hi)) hi *= 2.0;
  double lo = hi / 2.0;
  for (int i = 0; i < 12; ++i) {
    const double mid = 0.5 * (lo + hi);
    (feasible(mid) ? hi : lo) = mid;
  }
  return symmetric_schedule(c.num_phases(), hi).scaled(1.25);
}

/// dashboard_read's dash3: built as svcbench builds it, through the writer
/// and the reader.
Circuit dash504() {
  circuits::SyntheticParams p;
  p.num_phases = 3;
  p.num_stages = 63;
  p.latches_per_stage = 8;
  p.extra_long_edges = 8;
  return parser::parse_circuit(parser::write_circuit(circuits::synthetic_circuit(p, 2104)))
      .value();
}

ClockSchedule optimum_of(const Circuit& c) {
  return opt::minimize_cycle_time(c).value().schedule;
}

struct Pins {
  std::uint64_t report_json, report_table, report_html;
  std::uint64_t signoff_json, signoff_table, signoff_html;
  std::uint64_t svg;
};

std::uint64_t hash_of(const std::string& text) { return obs::fnv1a64(scrub_volatile(text)); }

void expect_pins(const Circuit& c, const ClockSchedule& s, const Pins& want) {
  const SlackDB db = build_slackdb(c, s);
  const SignoffDB signoff = build_signoff(c, s, sta::standard_corners(0.1));
  const sta::TimingReport timing = sta::check_schedule(c, s);
  const Pins got{hash_of(report_json(db)),         hash_of(report_table(db)),
                 hash_of(report_html(c, db)),      hash_of(signoff_json(signoff)),
                 hash_of(signoff_table(signoff)),  hash_of(signoff_html(c, signoff)),
                 hash_of(viz::svg_timing_diagram(c, s, timing.fixpoint.departure))};
  const auto hex = [](std::uint64_t h) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llxull", static_cast<unsigned long long>(h));
    return std::string(buf);
  };
  EXPECT_EQ(got.report_json, want.report_json) << "report_json " << hex(got.report_json);
  EXPECT_EQ(got.report_table, want.report_table) << "report_table " << hex(got.report_table);
  EXPECT_EQ(got.report_html, want.report_html) << "report_html " << hex(got.report_html);
  EXPECT_EQ(got.signoff_json, want.signoff_json) << "signoff_json " << hex(got.signoff_json);
  EXPECT_EQ(got.signoff_table, want.signoff_table) << "signoff_table " << hex(got.signoff_table);
  EXPECT_EQ(got.signoff_html, want.signoff_html) << "signoff_html " << hex(got.signoff_html);
  EXPECT_EQ(got.svg, want.svg) << "svg " << hex(got.svg);
}

TEST(ExporterPins, Example1AtItsOptimum) {
  const Circuit c = circuits::example1(80.0);
  expect_pins(c, optimum_of(c),
              {0x151a36b9fd06a613ull, 0x2acff8c3a64ff4dbull, 0xc555504a54fe6c40ull,
               0x90e792250ff6bdc4ull, 0x7055009c0a05f31eull, 0xc0ca7134f0b0e641ull,
               0xe06f5465fcb9b6d1ull});
}

TEST(ExporterPins, Example1BelowItsOptimum) {
  // 100 < Tc* = 110: the report takes its FAIL branches.
  const Circuit c = circuits::example1(80.0);
  expect_pins(c, optimum_of(c).scaled(100.0 / 110.0),
              {0x6b2570e3cb421232ull, 0xd9b26af55ccc3103ull, 0x7f38619ffbe657e7ull,
               0x40fc5621c0413a80ull, 0xa6c37e72b7b6b8a9ull, 0x925608bc698ef018ull,
               0x01764388edbb6d59ull});
}

TEST(ExporterPins, Example2AtItsOptimum) {
  const Circuit c = circuits::example2();
  expect_pins(c, optimum_of(c),
              {0xd0ba83bce0c2138aull, 0xe47e555de34ee330ull, 0x3337f24cfab59a9dull,
               0x4b2592cd22777b2eull, 0x672aa3197949191bull, 0x3afa8e12f42544a8ull,
               0xa4307eea697b1a8aull});
}

TEST(ExporterPins, GaasAtItsOptimum) {
  const Circuit c = circuits::gaas_datapath();
  expect_pins(c, optimum_of(c),
              {0xabc3704e3801879cull, 0xd1fcab7e41a6d563ull, 0xce85980f02f447f4ull,
               0x3e440efd5460b569ull, 0x1bc9c0f24c8b48e5ull, 0xb08d6c53e8260d80ull,
               0xcbd132bca157eaffull});
}

TEST(ExporterPins, DashboardRead504Latches) {
  const Circuit c = dash504();
  expect_pins(c, dashboard_schedule(c),
              {0x69004fbb2cd615d7ull, 0xd035a116120c1839ull, 0x7b65f49a9498f757ull,
               0x0c62c6bf5a0119a1ull, 0x2c03c9b284aa0182ull, 0x58b803bd9addd247ull,
               0x0c9601b546098788ull});
}

}  // namespace
}  // namespace mintc::report
