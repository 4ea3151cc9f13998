// Equivalence suite for the incremental AnalysisSession: over 200 seeded
// fuzzer circuits, drive one session through the four edit families the
// ISSUE contract names — single-delay edit, schedule slide, corner swap,
// structural edit forcing a cold fallback — and assert after every step
// that analyze() reproduces a fresh sta::check_schedule of the session's
// current circuit/schedule BIT-identically (departures, slacks, worst-case
// records), then rewind the whole edit history via undo_to(0) and require
// the original report again. The signoff legs hold report::build_signoff's
// corner walk, which derates one session, to the copy-based reference
// sta::derate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "opt/mlp.h"
#include "report/export.h"
#include "report/slackdb.h"
#include "sta/analysis.h"
#include "sta/corners.h"
#include "sta/session.h"

namespace mintc::check {
namespace {

void expect_reports_identical(const sta::TimingReport& got, const sta::TimingReport& want,
                              uint64_t seed, const char* leg) {
  ASSERT_EQ(got.feasible, want.feasible) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.schedule_ok, want.schedule_ok) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.converged, want.converged) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.setup_ok, want.setup_ok) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.hold_ok, want.hold_ok) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.elements.size(), want.elements.size()) << "seed " << seed << " " << leg;
  for (size_t i = 0; i < want.elements.size(); ++i) {
    // Exact ==: the session's warm path must land on the same least
    // fixpoint to the last bit, not merely within a tolerance.
    ASSERT_EQ(got.elements[i].departure, want.elements[i].departure)
        << "seed " << seed << " " << leg << " element " << i;
    ASSERT_EQ(got.elements[i].arrival, want.elements[i].arrival)
        << "seed " << seed << " " << leg << " element " << i;
    ASSERT_EQ(got.elements[i].setup_slack, want.elements[i].setup_slack)
        << "seed " << seed << " " << leg << " element " << i;
    ASSERT_EQ(got.elements[i].hold_slack, want.elements[i].hold_slack)
        << "seed " << seed << " " << leg << " element " << i;
  }
  ASSERT_EQ(got.worst_setup_slack, want.worst_setup_slack) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.worst_setup_element, want.worst_setup_element) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.worst_hold_slack, want.worst_hold_slack) << "seed " << seed << " " << leg;
  ASSERT_EQ(got.worst_hold_element, want.worst_hold_element) << "seed " << seed << " " << leg;
}

void expect_provenance_identical(const sta::ProvenanceReport& got,
                                 const sta::ProvenanceReport& want, uint64_t seed,
                                 const char* leg) {
  ASSERT_EQ(got.origins.size(), want.origins.size()) << "seed " << seed << " " << leg;
  for (size_t i = 0; i < want.origins.size(); ++i) {
    ASSERT_EQ(got.origins[i].via_path, want.origins[i].via_path)
        << "seed " << seed << " " << leg << " element " << i;
    ASSERT_EQ(got.origins[i].from, want.origins[i].from)
        << "seed " << seed << " " << leg << " element " << i;
    ASSERT_EQ(got.origins[i].term, want.origins[i].term)
        << "seed " << seed << " " << leg << " element " << i;
  }
  ASSERT_EQ(got.path_slack, want.path_slack) << "seed " << seed << " " << leg;
}

/// `json` with the number after each "wall_seconds" key removed: the export
/// stamps the process's wall time there.
std::string without_wall_clock(std::string json) {
  const std::string key = "\"wall_seconds\": ";
  for (size_t at = json.find(key); at != std::string::npos; at = json.find(key, at + 1)) {
    const size_t start = at + key.size();
    json.erase(start, json.find_first_of(",}", start) - start);
  }
  return json;
}

TEST(SessionEquivalence, FuzzCircuitsBitMatchFreshAnalysisAcrossEditFamilies) {
  int compared = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const Circuit circuit = fuzz_circuit(seed);
    const auto mlp = opt::minimize_cycle_time(circuit);
    if (!mlp) continue;  // infeasible draws carry no schedule to analyze
    if (circuit.num_paths() == 0) continue;
    sta::AnalysisOptions options;
    options.check_hold = true;
    const ClockSchedule relaxed = mlp->schedule.scaled(1.25);

    sta::AnalysisSession session(circuit, relaxed, options);
    const sta::TimingReport original = session.analyze();  // copy for the undo leg
    expect_reports_identical(original, sta::check_schedule(circuit, relaxed, options), seed,
                             "cold");

    // 1. Single-delay edit (increase: warm-start eligible).
    const int p = static_cast<int>(seed % static_cast<uint64_t>(circuit.num_paths()));
    session.set_path_delay(p, session.circuit().path(p).delay * 1.05 + 0.01);
    expect_reports_identical(
        session.analyze(),
        sta::check_schedule(session.circuit(), session.schedule(), options), seed,
        "delay-edit");

    // 2. Schedule slide (shrinking the schedule scales every shift up:
    //    warm; the result must still match a fresh solve exactly).
    session.set_schedule(relaxed.scaled(0.98));
    expect_reports_identical(
        session.analyze(),
        sta::check_schedule(session.circuit(), session.schedule(), options), seed,
        "schedule-slide");

    // 3. Corner swap: derating composes from the pristine circuit, so the
    //    reference is derate(original) under the slid schedule.
    session.apply_derating(1.05, 0.95);
    expect_reports_identical(
        session.analyze(),
        sta::check_schedule(sta::derate(circuit, {"slow", 1.05, 0.95}), session.schedule(),
                            options),
        seed, "corner-swap");

    // 4. Structural edit: forces a view rebuild + cold solve.
    const long cold_before = session.counters().cold_fallbacks;
    session.remove_path(session.circuit().num_paths() - 1);
    expect_reports_identical(
        session.analyze(),
        sta::check_schedule(session.circuit(), session.schedule(), options), seed,
        "structural");
    EXPECT_GT(session.counters().cold_fallbacks, cold_before)
        << "seed " << seed << ": structural edit must cold-start";

    // 5. Full rewind: the undo log must restore the original circuit AND
    //    schedule, and re-analysis must reproduce the first report.
    session.undo_to(0);
    expect_reports_identical(session.analyze(), original, seed, "undo-rewind");
    ++compared;
  }
  // Most fuzzer draws are feasible; guard against this suite silently
  // comparing nothing.
  EXPECT_GE(compared, 100) << "fuzzer feasibility collapsed; suite lost its teeth";
}

TEST(SessionEquivalence, SignoffCornersBitMatchDeratedCopies) {
  // Standard spreads, a zero spread (three equal scales: later corners hit
  // the cache), and an unsorted list whose odd corner scales min delays up
  // past the max delays (the min <= max clamp).
  const std::vector<std::vector<sta::Corner>> corner_lists = {
      sta::standard_corners(0.1),
      sta::standard_corners(0.0),
      {{"mid", 1.05, 0.9}, {"odd", 1.0, 2.0}, {"slow", 1.2, 1.1}, {"fast", 0.85, 0.8}},
  };
  sta::AnalysisOptions options;
  options.check_hold = true;
  options.provenance = true;
  int compared = 0;
  int diverged = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const Circuit circuit = fuzz_circuit(seed);
    const auto mlp = opt::minimize_cycle_time(circuit);
    if (!mlp) continue;
    // Below the optimum some corners diverge, which the walk must survive.
    for (const double scale : {0.97, 1.0, 1.15}) {
      const ClockSchedule schedule = mlp->schedule.scaled(scale);
      for (const std::vector<sta::Corner>& corners : corner_lists) {
        const report::SignoffDB signoff = report::build_signoff(circuit, schedule, corners);
        ASSERT_EQ(signoff.corners.size(), corners.size()) << "seed " << seed;
        for (size_t i = 0; i < corners.size(); ++i) {
          const report::SlackDB& got = signoff.corners[i];
          const Circuit derated = sta::derate(circuit, corners[i]);
          const sta::TimingReport want = sta::check_schedule(derated, schedule, options);
          expect_reports_identical(got.analysis, want, seed, corners[i].name.c_str());
          expect_provenance_identical(got.analysis.provenance, want.provenance, seed,
                                      corners[i].name.c_str());
          // The derated copy is named "<circuit>@<corner>" and built as a
          // single-corner database; align those fields and the build time.
          report::SlackDB ref = report::build_slackdb(derated, schedule);
          ref.circuit = got.circuit;
          ref.corner = got.corner;
          ref.build_seconds = got.build_seconds;
          ASSERT_EQ(without_wall_clock(report::report_json(got)),
                    without_wall_clock(report::report_json(ref)))
              << "seed " << seed << " " << corners[i].name;
          ASSERT_EQ(report::report_table(got), report::report_table(ref))
              << "seed " << seed << " " << corners[i].name;
          ++compared;
          if (!want.converged) ++diverged;
        }
      }
    }
  }
  EXPECT_GE(compared, 1000) << "fuzzer feasibility collapsed; suite lost its teeth";
  EXPECT_GT(diverged, 0) << "no corner diverged; the cold-fallback leg went untested";
}

}  // namespace
}  // namespace mintc::check
