// Golden-shape and cross-check tests for the signoff report subsystem.
//
// The SlackDB never computes a slack itself — it flattens what the analysis
// engines already produced — so every number in it must agree with an
// independent sta::check_schedule run to 1e-9. The exporters then get
// structural checks: the JSON parses, the HTML is one well-formed
// self-contained document, and the headline totals match the database.
#include "report/slackdb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "obs/metrics.h"
#include "opt/mlp.h"
#include "parser/lct.h"
#include "report/export.h"
#include "sta/analysis.h"
#include "../obs/json_validate.h"

namespace mintc::report {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ClockSchedule optimum_of(const Circuit& c) {
  const auto r = opt::minimize_cycle_time(c);
  EXPECT_TRUE(r.has_value());
  return r->schedule;
}

/// The paper's Fig. 11 GaAs schedule: min-duty refinement at Tc*, phi1
/// stretched back to the cycle origin so phi3 sits inside it.
ClockSchedule gaas_published_schedule(const Circuit& c) {
  const auto base = opt::minimize_cycle_time(c);
  EXPECT_TRUE(base.has_value());
  const auto refined =
      opt::refine_schedule(c, base->min_cycle, opt::SecondaryObjective::kMinTotalWidth);
  EXPECT_TRUE(refined.has_value());
  ClockSchedule sch = refined->schedule;
  sch.width[0] += sch.start[0];
  sch.start[0] = 0.0;
  return sch;
}

/// Every record in the database must equal the independent analysis run.
void expect_matches_analysis(const Circuit& c, const ClockSchedule& s, const SlackDB& db) {
  sta::AnalysisOptions aopt;
  aopt.check_hold = true;
  aopt.provenance = true;
  const sta::TimingReport ref = sta::check_schedule(c, s, aopt);
  ASSERT_EQ(db.endpoints.size(), ref.elements.size());
  double total_borrow = 0.0;
  for (size_t i = 0; i < ref.elements.size(); ++i) {
    const EndpointRecord& rec = db.endpoints[i];
    const sta::ElementTiming& t = ref.elements[i];
    EXPECT_EQ(rec.element, static_cast<int>(i));
    EXPECT_EQ(rec.name, c.element(static_cast<int>(i)).name);
    EXPECT_NEAR(rec.departure, t.departure, 1e-9) << rec.name;
    if (std::isfinite(t.arrival)) {
      EXPECT_NEAR(rec.arrival, t.arrival, 1e-9) << rec.name;
    }
    if (std::isfinite(t.setup_slack)) {
      EXPECT_NEAR(rec.setup_slack, t.setup_slack, 1e-9) << rec.name;
    }
    if (std::isfinite(t.hold_slack)) {
      EXPECT_NEAR(rec.hold_slack, t.hold_slack, 1e-9) << rec.name;
    }
    const double want_borrow =
        c.element(static_cast<int>(i)).is_latch() ? std::max(0.0, t.departure) : 0.0;
    EXPECT_NEAR(rec.borrow, want_borrow, 1e-9) << rec.name;
    total_borrow += want_borrow;
  }
  EXPECT_NEAR(db.total_borrow, total_borrow, 1e-9);
  EXPECT_EQ(db.feasible, ref.feasible);
  EXPECT_NEAR(db.worst_setup_slack(), ref.worst_setup_slack, 1e-9);
}

TEST(SlackDbTest, Example1MatchesIndependentAnalysis) {
  const Circuit c = circuits::example1(80.0);
  const ClockSchedule s = optimum_of(c);
  expect_matches_analysis(c, s, build_slackdb(c, s));
}

TEST(SlackDbTest, Example2MatchesIndependentAnalysis) {
  const Circuit c = circuits::example2();
  const ClockSchedule s = optimum_of(c);
  expect_matches_analysis(c, s, build_slackdb(c, s));
}

TEST(SlackDbTest, GaasMatchesIndependentAnalysis) {
  const Circuit c = circuits::gaas_datapath();
  const ClockSchedule s = gaas_published_schedule(c);
  expect_matches_analysis(c, s, build_slackdb(c, s));
}

TEST(SlackDbTest, GaasPublishedScheduleHeadlines) {
  // The paper's case study: Tc* = 4.4 ns, 91 LP rows, and the Fig. 11
  // schedule overlaps phi3 entirely inside phi1.
  const Circuit c = circuits::gaas_datapath();
  const ClockSchedule s = gaas_published_schedule(c);
  const SlackDB db = build_slackdb(c, s);
  EXPECT_NEAR(db.tc, circuits::kGaasPaperOptimalTc, 1e-6);
  EXPECT_EQ(db.num_constraints, 91);
  ASSERT_EQ(db.overlapping_phases.size(), 1u);
  EXPECT_EQ(db.overlapping_phases[0], std::make_pair(1, 3));
}

TEST(SlackDbTest, GaasBorrowProfile) {
  // Latch-controlled operation is the whole point of the GaAs schedule:
  // operand and load latches flow through past their enabling edges.
  const Circuit c = circuits::gaas_datapath();
  const ClockSchedule s = gaas_published_schedule(c);
  const SlackDB db = build_slackdb(c, s);
  EXPECT_GT(db.total_borrow, 1.0);
  for (const std::string name : {"OpA", "OpB", "LoadAl"}) {
    const auto id = c.find_element(name);
    ASSERT_TRUE(id.has_value());
    EXPECT_GT(db.endpoints[static_cast<size_t>(*id)].borrow, 0.0) << name;
  }
  // Flip-flops never borrow: their departure is pinned to the edge.
  for (const std::string name : {"PC", "Bcond", "Exc"}) {
    const auto id = c.find_element(name);
    ASSERT_TRUE(id.has_value());
    EXPECT_DOUBLE_EQ(db.endpoints[static_cast<size_t>(*id)].borrow, 0.0) << name;
  }
  // Chains are sorted by total borrow, cover only borrowing latches, and
  // sum (across all chains) to at most the database total.
  ASSERT_FALSE(db.borrow_chains.empty());
  double chain_sum = 0.0;
  for (size_t i = 0; i < db.borrow_chains.size(); ++i) {
    const BorrowChain& chain = db.borrow_chains[i];
    ASSERT_FALSE(chain.elements.empty());
    double member_sum = 0.0;
    for (const int e : chain.elements) {
      member_sum += db.endpoints[static_cast<size_t>(e)].borrow;
    }
    EXPECT_NEAR(chain.total_borrow, member_sum, 1e-9);
    EXPECT_EQ(chain.paths.size(), chain.elements.size() - (chain.is_loop ? 0 : 1));
    if (i) {
      EXPECT_LE(chain.total_borrow, db.borrow_chains[i - 1].total_borrow + 1e-12);
    }
    chain_sum += chain.total_borrow;
  }
  EXPECT_LE(chain_sum, db.total_borrow + 1e-9);
}

TEST(SlackDbTest, WorstListsAreSortedAndBounded) {
  const Circuit c = circuits::gaas_datapath();
  const ClockSchedule s = gaas_published_schedule(c);
  SlackDbOptions opt;
  opt.nworst = 4;
  const SlackDB db = build_slackdb(c, s, opt);
  ASSERT_EQ(db.worst_endpoints.size(), 4u);
  ASSERT_LE(db.worst_paths.size(), 4u);
  for (size_t i = 1; i < db.worst_endpoints.size(); ++i) {
    EXPECT_LE(db.endpoints[static_cast<size_t>(db.worst_endpoints[i - 1])].setup_slack,
              db.endpoints[static_cast<size_t>(db.worst_endpoints[i])].setup_slack + 1e-12);
  }
  for (size_t i = 1; i < db.worst_paths.size(); ++i) {
    EXPECT_LE(db.paths[static_cast<size_t>(db.worst_paths[i - 1])].slack,
              db.paths[static_cast<size_t>(db.worst_paths[i])].slack + 1e-12);
  }
}

TEST(SlackDbTest, HistogramTotalsAreConsistent) {
  const Circuit c = circuits::example2();
  const ClockSchedule s = optimum_of(c);
  const SlackDB db = build_slackdb(c, s);
  // Bucket counts sum to the population; the population is every finite
  // setup slack; min/max bracket the quantiles.
  long in_buckets = std::accumulate(db.setup_hist.buckets.begin(),
                                    db.setup_hist.buckets.end(), 0L);
  EXPECT_EQ(in_buckets, db.setup_hist.count);
  long finite = 0;
  for (const EndpointRecord& r : db.endpoints) {
    if (r.setup_slack < kInf) ++finite;
  }
  EXPECT_EQ(db.setup_hist.count, finite);
  EXPECT_LE(db.setup_hist.min, db.setup_hist.p50);
  EXPECT_LE(db.setup_hist.p50, db.setup_hist.p95);
  EXPECT_LE(db.setup_hist.p95, db.setup_hist.p99);
  EXPECT_LE(db.setup_hist.p99, db.setup_hist.max);
  EXPECT_NEAR(db.setup_hist.min, db.worst_setup_slack(), 1e-9);
}

// Match on name + circuit label: registry handles persist across tests in
// this process, so points for other circuits may coexist (zeroed).
bool labelled_with_circuit(const obs::MetricPoint& p, const std::string& circuit) {
  return std::any_of(p.labels.begin(), p.labels.end(), [&](const auto& label) {
    return label.first == "circuit" && label.second == circuit;
  });
}

TEST(SlackDbTest, MirrorsHeadlinesIntoMetricsRegistry) {
  obs::MetricsRegistry::instance().reset();
  const Circuit c = circuits::example1(80.0);
  const ClockSchedule s = optimum_of(c);
  const SlackDB db = build_slackdb(c, s);
  bool saw_gauge = false, saw_rows = false;
  for (const obs::MetricPoint& p : obs::MetricsRegistry::instance().snapshot()) {
    if (!labelled_with_circuit(p, db.circuit)) continue;
    if (p.name == "report.worst_setup_slack") {
      saw_gauge = true;
      EXPECT_NEAR(p.value, db.worst_setup_slack(), 1e-9);
    }
    if (p.name == "report.num_constraints") {
      saw_rows = true;
      EXPECT_EQ(p.value, db.num_constraints);
    }
  }
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_rows);
}

// A second build of the same circuit replaces what the registry says about
// it: no instrument keeps the first build's bounds or pools both builds'
// endpoints.
TEST(SlackDbTest, RegistryDescribesOnlyTheLatestBuild) {
  obs::MetricsRegistry::instance().reset();
  const Circuit c = circuits::example1(80.0);
  const ClockSchedule s = optimum_of(c);
  const SlackDB first = build_slackdb(c, s.scaled(1.5));
  const SlackDB last = build_slackdb(c, s.scaled(20.0));
  ASSERT_GT(last.setup_hist.min, first.setup_hist.max);  // disjoint slack ranges
  bool saw_gauge = false;
  for (const obs::MetricPoint& p : obs::MetricsRegistry::instance().snapshot()) {
    if (!labelled_with_circuit(p, last.circuit)) continue;
    if (p.kind == obs::MetricKind::kHistogram) {
      EXPECT_EQ(p.count, last.setup_hist.count) << p.name;
      EXPECT_EQ(p.bounds, last.setup_hist.bounds) << p.name;
      EXPECT_EQ(p.max, last.setup_hist.max) << p.name;
    }
    if (p.name == "report.worst_setup_slack") {
      saw_gauge = true;
      EXPECT_EQ(p.value, last.worst_setup_slack());
    }
  }
  EXPECT_TRUE(saw_gauge);
}

// A signoff labels each corner's gauges with the design's own circuit name
// plus a corner label, so a dashboard can select a design's corners by its
// circuit. No series carries the derated copy's `<circuit>@<corner>` name.
TEST(SlackDbTest, SignoffMirrorsCornersUnderTheDesignName) {
  obs::MetricsRegistry::instance().reset();
  const Circuit c = circuits::example1(80.0);
  // Stretched so no corner's worst slack is exactly zero, which a reset
  // gauge also reads.
  const SignoffDB db = build_signoff(c, optimum_of(c).scaled(1.5), sta::standard_corners(0.1));
  ASSERT_EQ(db.corners.size(), 3u);
  for (const SlackDB& corner : db.corners) {
    const obs::Labels want = {{"circuit", c.name()}, {"corner", corner.corner}};
    bool saw_gauge = false;
    for (const obs::MetricPoint& p : obs::MetricsRegistry::instance().snapshot()) {
      if (p.name == "report.worst_setup_slack" && p.labels == want) {
        saw_gauge = true;
        EXPECT_EQ(p.value, corner.worst_setup_slack()) << corner.corner;
      }
    }
    EXPECT_TRUE(saw_gauge) << "no report.worst_setup_slack{circuit=" << c.name()
                           << ", corner=" << corner.corner << "}";
  }
  for (const obs::MetricPoint& p : obs::MetricsRegistry::instance().snapshot()) {
    if (p.name.rfind("report.", 0) != 0) continue;
    for (const auto& [key, value] : p.labels) {
      if (key == "circuit" && value.find('@') != std::string::npos) {
        EXPECT_EQ(p.value, 0.0) << p.name << "{circuit=" << value << "} was set";
      }
    }
  }
}

// ----------------------------------------------------------- exporters --

TEST(ReportExportTest, JsonIsValidAndCarriesMetaHeader) {
  const Circuit c = circuits::gaas_datapath();
  const ClockSchedule s = gaas_published_schedule(c);
  const SlackDB db = build_slackdb(c, s);
  const std::string json = report_json(db);
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"meta\""), std::string::npos);
  EXPECT_NE(json.find("\"schedule_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"circuit\": \"gaas_mips_datapath\""), std::string::npos);
  EXPECT_NE(json.find("\"num_constraints\": 91"), std::string::npos);
  EXPECT_NE(json.find("\"borrow_chains\""), std::string::npos);
  EXPECT_NE(json.find("\"overlapping_phases\": [[1, 3]]"), std::string::npos);
}

TEST(ReportExportTest, CornerIsPartOfTheRunIdentityHash) {
  // RunMetadata contract (obs/export.h): two corners of the same
  // circuit+schedule are DIFFERENT runs — meta_for must mix the corner into
  // schedule_hash so no cache keyed on it can ever serve the slow corner's
  // numbers for the fast corner (the serve result cache relies on this).
  const Circuit c = circuits::example1();
  const ClockSchedule s = optimum_of(c);
  const SignoffDB signoff = build_signoff(c, s, sta::standard_corners(0.1));
  ASSERT_GE(signoff.corners.size(), 2u);

  const auto schedule_hash_of = [](const SlackDB& db) {
    const std::string json = report_json(db);
    const size_t key = json.find("\"schedule_hash\": \"");
    EXPECT_NE(key, std::string::npos);
    const size_t start = key + std::string("\"schedule_hash\": \"").size();
    return json.substr(start, json.find('"', start) - start);
  };

  const std::string nominal = schedule_hash_of(build_slackdb(c, s));
  std::vector<std::string> hashes{nominal};
  for (const SlackDB& db : signoff.corners) {
    const std::string h = schedule_hash_of(db);
    for (const std::string& seen : hashes) {
      EXPECT_NE(h, seen) << "corner \"" << db.corner
                         << "\" shares a run hash with another corner";
    }
    hashes.push_back(h);
    // The corner id itself is stamped into the meta header.
    EXPECT_NE(report_json(db).find("\"corner\": \"" + db.corner + "\""),
              std::string::npos);
  }
}

TEST(ReportExportTest, TableNamesTheHeadlines) {
  const Circuit c = circuits::example2();
  const ClockSchedule s = optimum_of(c);
  const std::string table = report_table(build_slackdb(c, s));
  EXPECT_NE(table.find("timing signoff report"), std::string::npos);
  EXPECT_NE(table.find("worst"), std::string::npos);
  EXPECT_NE(table.find("p50"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
}

TEST(ReportExportTest, HtmlIsOneSelfContainedDocument) {
  const Circuit c = circuits::gaas_datapath();
  const ClockSchedule s = gaas_published_schedule(c);
  const SlackDB db = build_slackdb(c, s);
  const std::string html = report_html(c, db);

  const auto count = [&](const std::string& needle) {
    size_t n = 0, pos = 0;
    while ((pos = html.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  // Exactly one document.
  EXPECT_EQ(count("<!DOCTYPE"), 1u);
  EXPECT_EQ(count("<html"), 1u);
  EXPECT_EQ(count("</html>"), 1u);
  EXPECT_EQ(count("<body"), 1u);
  EXPECT_EQ(count("</body>"), 1u);
  // Balanced structural tags.
  EXPECT_EQ(count("<section"), count("</section>"));
  EXPECT_EQ(count("<table"), count("</table>"));
  EXPECT_EQ(count("<svg"), count("</svg>"));
  EXPECT_EQ(count("<tr"), count("</tr>"));
  EXPECT_GE(count("<svg"), 3u);  // timing diagram + histogram + borrow chart
  // Self-contained: no external assets of any kind.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
  EXPECT_EQ(html.find("<img"), std::string::npos);
  EXPECT_EQ(html.find("@import"), std::string::npos);
  // The headline values appear.
  EXPECT_NE(html.find("4.4"), std::string::npos);
  EXPECT_NE(html.find("constraints"), std::string::npos);
  EXPECT_NE(html.find("phi1 &cap; phi3"), std::string::npos);
}

TEST(ReportExportTest, HtmlEscapesEveryElementName) {
  // The timing diagram, the tables and the borrow chart all name elements.
  const auto c = parser::parse_circuit(
      "circuit esc\nphases 2\n"
      "latch \"a<b&c\" phase=1 setup=10 dq=10\nlatch L2 phase=2 setup=10 dq=10\n"
      "path \"a<b&c\" L2 delay=20\npath L2 \"a<b&c\" delay=30\n");
  ASSERT_TRUE(c) << c.error().to_string();
  const std::string html = report_html(*c, build_slackdb(*c, optimum_of(*c)));
  EXPECT_EQ(html.find("a<b"), std::string::npos);
  EXPECT_NE(html.find(">&quot;a&lt;b&amp;c&quot;</text>"), std::string::npos);
  EXPECT_NE(html.find("<td>&quot;a&lt;b&amp;c&quot;</td>"), std::string::npos);
}

TEST(ReportExportTest, SignoffMergedViewIsThePerCornerMinimum) {
  const Circuit c = circuits::example1(80.0);
  const ClockSchedule s = optimum_of(c);
  const SignoffDB db = build_signoff(c, s);
  ASSERT_EQ(db.corners.size(), 3u);
  ASSERT_EQ(db.merged_setup_slack.size(), db.corners.front().endpoints.size());
  for (size_t i = 0; i < db.merged_setup_slack.size(); ++i) {
    double min_setup = kInf, min_hold = kInf;
    for (const SlackDB& corner : db.corners) {
      min_setup = std::min(min_setup, corner.endpoints[i].setup_slack);
      min_hold = std::min(min_hold, corner.endpoints[i].hold_slack);
    }
    if (min_setup < kInf) {
      EXPECT_NEAR(db.merged_setup_slack[i], min_setup, 1e-9);
      const int at = db.merged_setup_corner[i];
      ASSERT_GE(at, 0);
      EXPECT_NEAR(db.corners[static_cast<size_t>(at)].endpoints[i].setup_slack, min_setup,
                  1e-9);
    }
    if (min_hold < kInf) {
      EXPECT_NEAR(db.merged_hold_slack[i], min_hold, 1e-9);
    }
  }
  bool all_pass = true;
  for (const SlackDB& corner : db.corners) all_pass = all_pass && corner.feasible;
  EXPECT_EQ(db.all_pass, all_pass);

  const std::string json = signoff_json(db);
  EXPECT_TRUE(mintc::testing::is_valid_json(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"all_pass\""), std::string::npos);
  EXPECT_NE(json.find("\"merged\""), std::string::npos);
  const std::string html = signoff_html(c, db);
  EXPECT_NE(html.find("<!DOCTYPE"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  EXPECT_NE(html.find("slow"), std::string::npos);
  EXPECT_NE(html.find("fast"), std::string::npos);
}

TEST(ReportExportTest, InfeasibleScheduleStillExports) {
  // Squeeze example 2's optimum cycle by 20%: setup fails, yet the report
  // must still build and export (that is what signoff is for).
  const Circuit c = circuits::example2();
  ClockSchedule s = optimum_of(c);
  const double shrink = 0.8;
  s.cycle *= shrink;
  for (double& v : s.start) v *= shrink;
  for (double& v : s.width) v *= shrink;
  const SlackDB db = build_slackdb(c, s);
  EXPECT_FALSE(db.feasible);
  EXPECT_LT(db.worst_setup_slack(), 0.0);
  EXPECT_TRUE(mintc::testing::is_valid_json(report_json(db)));
  const std::string html = report_html(c, db);
  EXPECT_NE(html.find("FAIL"), std::string::npos);
  const std::string table = report_table(db);
  EXPECT_NE(table.find("FAIL"), std::string::npos);
}

}  // namespace
}  // namespace mintc::report
