// Constraint provenance: pins the known critical chains of Example 2 and the
// GaAs datapath at their optimal schedules, plus unit coverage for the
// arg-max / tightness reconstruction itself.
#include "sta/provenance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "circuits/example2.h"
#include "circuits/gaas.h"
#include "opt/mlp.h"
#include "sta/analysis.h"

namespace mintc::sta {
namespace {

bool has_tight(const ProvenanceReport& rep, const std::string& name) {
  return std::any_of(rep.tight.begin(), rep.tight.end(),
                     [&](const TightConstraint& t) { return t.name == name; });
}

ProvenanceReport provenance_of(const Circuit& c, const ClockSchedule& s,
                               const std::vector<double>& departure) {
  const TimingView view(c);
  const ShiftTable shifts(s);
  return constraint_provenance(c, view, s, shifts, departure);
}

ProvenanceReport provenance_at_optimum(const Circuit& c, double* min_cycle = nullptr) {
  const auto r = opt::minimize_cycle_time(c);
  EXPECT_TRUE(r.has_value());
  if (min_cycle) *min_cycle = r->min_cycle;
  AnalysisOptions aopt;
  aopt.provenance = true;
  const TimingReport rep = check_schedule(c, r->schedule, aopt);
  EXPECT_TRUE(rep.feasible);
  return rep.provenance;
}

TEST(ProvenanceTest, Example2CriticalChainRunsThroughTheLongStage) {
  const Circuit c = circuits::example2();
  double tc = 0.0;
  const ProvenanceReport rep = provenance_at_optimum(c, &tc);
  EXPECT_NEAR(tc, 70.0, 1e-6);
  ASSERT_FALSE(rep.empty());
  // The worst-slack latch traces back through the coupling path X23 and the
  // 58 ns stage M12 to P1, which departs at its phase edge (the 0-clamp).
  EXPECT_EQ(rep.chain_to_string(c), "Q3(phi3) <- X23 <- P2(phi2) <- M12 <- P1(phi1)");
  EXPECT_FALSE(rep.chain_is_loop);
  ASSERT_EQ(rep.critical_chain.size(), 3u);
  ASSERT_EQ(rep.critical_paths.size(), 2u);
  EXPECT_EQ(rep.critical_chain.back(), c.find_element("P1").value());
}

TEST(ProvenanceTest, Example2TightConstraintsNameTheBindingRows) {
  const Circuit c = circuits::example2();
  const ProvenanceReport rep = provenance_at_optimum(c);
  EXPECT_TRUE(has_tight(rep, "L2[P1->P2 via M12]"));
  EXPECT_TRUE(has_tight(rep, "L2[P2->Q3 via X23]"));
  EXPECT_TRUE(has_tight(rep, "L3[P1]"));
  EXPECT_TRUE(has_tight(rep, "C4[s(phi1)=0]"));
  EXPECT_TRUE(has_tight(rep, "C3[phi2 nonoverlap phi1]"));
  // A comfortably slack latch must not appear tight.
  EXPECT_FALSE(has_tight(rep, "L1[R2]"));
  EXPECT_FALSE(has_tight(rep, "L3[P2]"));
}

TEST(ProvenanceTest, Example2OriginsPointAtTheArgMaxEdges) {
  const Circuit c = circuits::example2();
  const ProvenanceReport rep = provenance_at_optimum(c);
  const int p1 = c.find_element("P1").value();
  const int p2 = c.find_element("P2").value();
  ASSERT_EQ(rep.origins.size(), static_cast<size_t>(c.num_elements()));
  // P1 departs at its phase edge: the 0-clamp, no incoming arg-max edge.
  EXPECT_EQ(rep.origins[static_cast<size_t>(p1)].via_path, -1);
  EXPECT_EQ(rep.origins[static_cast<size_t>(p1)].from, -1);
  // P2's departure is produced by the M12 edge out of P1.
  const DepartureOrigin& o2 = rep.origins[static_cast<size_t>(p2)];
  ASSERT_GE(o2.via_path, 0);
  EXPECT_EQ(o2.from, p1);
  EXPECT_EQ(c.path(o2.via_path).label, "M12");
  EXPECT_GT(o2.term, 0.0);
}

TEST(ProvenanceTest, GaasCriticalChainIsTheLoadPath) {
  // The published-shape schedule (min duty cycle, phi1 anchored at the cycle
  // origin) — the same shape bench_fig11_gaas_datapath verifies.
  const Circuit c = circuits::gaas_datapath();
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r.has_value());
  const auto refined =
      opt::refine_schedule(c, r->min_cycle, opt::SecondaryObjective::kMinTotalWidth);
  ASSERT_TRUE(refined.has_value());
  ClockSchedule sch = refined->schedule;
  sch.width[0] += sch.start[0];
  sch.start[0] = 0.0;
  AnalysisOptions aopt;
  aopt.provenance = true;
  const TimingReport report = check_schedule(c, sch, aopt);
  ASSERT_TRUE(report.feasible);
  const ProvenanceReport& rep = report.provenance;
  // The published bottleneck: instruction fetch -> address generation ->
  // data-cache load, ending at the load aligner. IAddr departs at its phase
  // edge, so the chain terminates there.
  EXPECT_EQ(rep.chain_to_string(c),
            "LoadAl(phi1) <- DCache <- DAddr(phi2) <- AGen.off <- IR(phi1) <- ICache <- "
            "IAddr(phi2)");
  EXPECT_FALSE(rep.chain_is_loop);
  EXPECT_TRUE(has_tight(rep, "L1[LoadAl]"));
  EXPECT_TRUE(has_tight(rep, "L1[OpA]"));
  EXPECT_TRUE(has_tight(rep, "L2[DAddr->LoadAl via DCache]"));
  EXPECT_TRUE(has_tight(rep, "L3[PreCtl]"));
  EXPECT_TRUE(has_tight(rep, "C4[s(phi1)=0]"));
}

TEST(ProvenanceTest, ArgMaxCycleIsReportedAsALoop) {
  // Two latches whose arg-max edges point at each other. At this circuit's
  // optimum both loop terms are exactly 0, so ANY constant vector solves
  // eq. (17) on the loop; provenance must recognise the cycle instead of
  // walking forever.
  Circuit c("loop2", 2);
  c.add_latch("A", 1, 1.0, 2.0);
  c.add_latch("B", 2, 1.0, 2.0);
  c.add_path("A", "B", 20.0, 0.0, "fwd");
  c.add_path("B", "A", 20.0, 0.0, "back");
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r.has_value());
  const ProvenanceReport rep = provenance_of(c, r->schedule, {3.0, 3.0});
  EXPECT_TRUE(rep.chain_is_loop);
  EXPECT_EQ(rep.critical_chain.size(), 2u);
  EXPECT_EQ(rep.critical_paths.size(), 2u);
  EXPECT_NE(rep.chain_to_string(c).find("(loop)"), std::string::npos);
}

TEST(ProvenanceTest, FlipFlopEndpointsAreAlwaysClampOrigins) {
  // GaAs's three flip-flops (PC, Bcond, Exc): their departures are pinned
  // to the clock edge, so eq. (17) never attributes an arg-max edge to them
  // — every F/F origin must be the clamp, regardless of fanin depth.
  const Circuit c = circuits::gaas_datapath();
  const ProvenanceReport rep = provenance_at_optimum(c);
  ASSERT_EQ(rep.origins.size(), static_cast<size_t>(c.num_elements()));
  int ffs_seen = 0;
  for (const std::string name : {"PC", "Bcond", "Exc"}) {
    const auto id = c.find_element(name);
    ASSERT_TRUE(id.has_value()) << name;
    const DepartureOrigin& origin = rep.origins[static_cast<size_t>(*id)];
    EXPECT_EQ(c.element(*id).kind, ElementKind::kFlipFlop) << name;
    EXPECT_EQ(origin.via_path, -1) << name;
    EXPECT_EQ(origin.from, -1) << name;
    EXPECT_DOUBLE_EQ(origin.term, 0.0) << name;
    ++ffs_seen;
  }
  EXPECT_EQ(ffs_seen, 3);
  // And no latch's arg-max chain may pass *through* a flip-flop: any origin
  // edge out of an F/F would carry a pinned 0 departure, i.e. it behaves as
  // a chain terminator exactly like the clamp.
  for (const DepartureOrigin& origin : rep.origins) {
    if (origin.from < 0) continue;
    if (c.element(origin.from).kind == ElementKind::kFlipFlop) {
      EXPECT_EQ(rep.origins[static_cast<size_t>(origin.from)].via_path, -1);
    }
  }
}

TEST(ProvenanceTest, SingleLatchSelfLoopDegenerateCircuit) {
  // The smallest possible feedback circuit: one latch feeding itself. The
  // provenance walk must terminate (clamp or single-element loop), never
  // spin on the self-edge.
  Circuit c("self1", 1);
  c.add_latch("L", 1, 1.0, 2.0);
  c.add_path("L", "L", 10.0, 0.0, "self");
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r.has_value());
  AnalysisOptions aopt;
  aopt.provenance = true;
  const TimingReport rep = check_schedule(c, r->schedule, aopt);
  ASSERT_TRUE(rep.feasible);
  ASSERT_EQ(rep.provenance.origins.size(), 1u);
  const DepartureOrigin& origin = rep.provenance.origins[0];
  if (origin.via_path >= 0) {
    // Self-edge arg-max: the chain is the one-element loop through it.
    EXPECT_EQ(origin.from, 0);
    EXPECT_TRUE(rep.provenance.chain_is_loop);
    EXPECT_EQ(rep.provenance.critical_chain.size(), 1u);
    EXPECT_EQ(rep.provenance.critical_paths.size(), 1u);
  } else {
    // 0-clamped: a one-element chain ending at the clamp.
    EXPECT_FALSE(rep.provenance.chain_is_loop);
    EXPECT_EQ(rep.provenance.critical_chain.size(), 1u);
    EXPECT_TRUE(rep.provenance.critical_paths.empty());
  }
  // Either way the renderer must not loop forever.
  EXPECT_FALSE(rep.provenance.chain_to_string(c).empty());
}

TEST(ProvenanceTest, MismatchedDepartureSizeYieldsEmptyReport) {
  const Circuit c = circuits::example2();
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r.has_value());
  const ProvenanceReport rep = provenance_of(c, r->schedule, {1.0, 2.0});
  EXPECT_TRUE(rep.empty());
}

TEST(ProvenanceTest, AnalysisSkipsProvenanceUnlessAsked) {
  const Circuit c = circuits::example2();
  const auto r = opt::minimize_cycle_time(c);
  ASSERT_TRUE(r.has_value());
  const TimingReport rep = check_schedule(c, r->schedule);  // default options
  EXPECT_TRUE(rep.provenance.empty());
  // And the full report renders the provenance section only when present.
  EXPECT_EQ(rep.to_string(c).find("tight constraints"), std::string::npos);
}

TEST(ProvenanceTest, ReportRendersTableAndChain) {
  const Circuit c = circuits::example2();
  const ProvenanceReport rep = provenance_at_optimum(c);
  const std::string text = rep.to_string(c);
  EXPECT_NE(text.find("tight constraints"), std::string::npos);
  EXPECT_NE(text.find("L2[P1->P2 via M12]"), std::string::npos);
  EXPECT_NE(text.find("critical chain: Q3(phi3)"), std::string::npos);
}

}  // namespace
}  // namespace mintc::sta
