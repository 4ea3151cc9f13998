#include <gtest/gtest.h>

#include "circuits/example1.h"
#include "opt/mlp.h"
#include "parser/lct.h"
#include "viz/svg.h"
#include "viz/timing_diagram.h"

namespace mintc::viz {
namespace {

struct Solved {
  Circuit circuit;
  ClockSchedule schedule;
  std::vector<double> departure;
};

Solved solved_example1() {
  Circuit c = circuits::example1(80.0);
  const auto r = opt::minimize_cycle_time(c);
  EXPECT_TRUE(r.has_value());
  return {std::move(c), r->schedule, r->departure};
}

TEST(AsciiClock, OneRowPerPhasePlusRuler) {
  const Solved s = solved_example1();
  const std::string d = ascii_clock_diagram(s.schedule);
  EXPECT_NE(d.find("phi1"), std::string::npos);
  EXPECT_NE(d.find("phi2"), std::string::npos);
  EXPECT_NE(d.find("Tc = 110"), std::string::npos);
  EXPECT_NE(d.find('#'), std::string::npos);  // active intervals
  EXPECT_NE(d.find('_'), std::string::npos);  // passive intervals
}

TEST(AsciiClock, ActiveFractionRoughlyMatchesDuty) {
  // phi1 is 80/110 of the cycle: around 73% of its row should be '#'.
  DiagramOptions opt;
  opt.columns = 110;
  opt.cycles = 1;
  const ClockSchedule sch(110.0, {0.0, 80.0}, {80.0, 30.0});
  const std::string d = ascii_clock_diagram(sch, opt);
  const size_t line_end = d.find('\n');
  const std::string row = d.substr(0, line_end);
  const long hashes = std::count(row.begin(), row.end(), '#');
  EXPECT_NEAR(static_cast<double>(hashes), 80.0, 3.0);
}

TEST(AsciiTiming, StripsForEveryElement) {
  const Solved s = solved_example1();
  const std::string d = ascii_timing_diagram(s.circuit, s.schedule, s.departure);
  for (const Element& e : s.circuit.elements()) {
    EXPECT_NE(d.find(e.name), std::string::npos);
  }
  EXPECT_NE(d.find('X'), std::string::npos);  // latch delay shading
  EXPECT_NE(d.find('='), std::string::npos);  // combinational span
  EXPECT_NE(d.find("departure"), std::string::npos);  // legend
}

TEST(AsciiTiming, WaitGapShownForEarlyArrivals) {
  // At Δ41=120 the paper notes L3's input arrives 20 ns before phi1 rises:
  // the L3 strip must show a wait gap ('.').
  Circuit c = circuits::example1(120.0);
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r.has_value());
  const std::string d = ascii_timing_diagram(c, r->schedule, r->departure);
  EXPECT_NE(d.find('.'), std::string::npos);
}

TEST(AsciiTiming, EmptyScheduleHandled) {
  Circuit c("empty", 1);
  const ClockSchedule sch(0.0, {0.0}, {0.0});
  const std::string d = ascii_timing_diagram(c, sch, {});
  EXPECT_NE(d.find("empty schedule"), std::string::npos);
}

TEST(DepartureSummary, PaperStyle) {
  const Solved s = solved_example1();
  const std::string d = departure_summary(s.circuit, s.departure);
  EXPECT_NE(d.find("D(L1)="), std::string::npos);
  EXPECT_NE(d.find("D(L4)="), std::string::npos);
}

TEST(Svg, WellFormedDocument) {
  const Solved s = solved_example1();
  const std::string svg = svg_timing_diagram(s.circuit, s.schedule, s.departure);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One label per phase and per element.
  EXPECT_NE(svg.find(">phi1<"), std::string::npos);
  EXPECT_NE(svg.find(">L4<"), std::string::npos);
  // Balanced rect count: at least phases * cycles rects.
  size_t rects = 0;
  for (size_t p = svg.find("<rect"); p != std::string::npos; p = svg.find("<rect", p + 1)) {
    ++rects;
  }
  EXPECT_GE(rects, 8u);
}

TEST(Svg, ElementNamesAreEscaped) {
  // A quoted .lct name may hold markup characters; the label must not.
  const auto c = parser::parse_circuit(
      "circuit esc\nphases 2\n"
      "latch \"a<b&c\" phase=1 setup=10 dq=10\nlatch L2 phase=2 setup=10 dq=10\n"
      "path \"a<b&c\" L2 delay=20\npath L2 \"a<b&c\" delay=30\n");
  ASSERT_TRUE(c) << c.error().to_string();
  const auto r = opt::minimize_cycle_time(*c);
  ASSERT_TRUE(r);
  const std::string svg = svg_timing_diagram(*c, r->schedule, r->departure);
  // The reader keeps a quoted name's quotes.
  EXPECT_NE(svg.find(">&quot;a&lt;b&amp;c&quot;</text>"), std::string::npos) << svg;
  EXPECT_EQ(svg.find("a<b"), std::string::npos);
}

TEST(Svg, DegenerateScheduleStillValid) {
  Circuit c("empty", 1);
  const std::string svg = svg_timing_diagram(c, ClockSchedule(0.0, {0.0}, {0.0}), {});
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

}  // namespace
}  // namespace mintc::viz
