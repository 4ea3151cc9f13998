#include "netlist/generators.h"

#include <gtest/gtest.h>

#include "graph/scc.h"
#include "netlist/extract.h"
#include "opt/mlp.h"
#include "sta/analysis.h"

namespace mintc::netlist {
namespace {

TEST(Generators, StructureMatchesConfig) {
  DatapathConfig cfg;
  cfg.bits = 4;
  cfg.stages = 3;
  const Netlist n = make_pipelined_datapath(cfg);
  EXPECT_EQ(n.storages().size(), 12u);  // bits * stages latches
  // Per stage: bits XORs + (bits-1) ANDs.
  EXPECT_EQ(n.gates().size(), static_cast<size_t>(3 * (4 + 3)));
  EXPECT_TRUE(n.validate().empty());
}

TEST(Generators, Deterministic) {
  DatapathConfig cfg;
  const Netlist a = make_pipelined_datapath(cfg);
  const Netlist b = make_pipelined_datapath(cfg);
  EXPECT_EQ(a.gates().size(), b.gates().size());
  EXPECT_EQ(a.num_nets(), b.num_nets());
  for (size_t i = 0; i < a.gates().size(); ++i) {
    EXPECT_EQ(a.gates()[i].name, b.gates()[i].name);
    EXPECT_EQ(a.gates()[i].output, b.gates()[i].output);
  }
}

TEST(Generators, ExtractsToValidCircuit) {
  DatapathConfig cfg;
  cfg.bits = 6;
  cfg.stages = 4;
  const auto circuit = extract_timing_model(make_pipelined_datapath(cfg));
  ASSERT_TRUE(circuit) << circuit.error().to_string();
  EXPECT_EQ(circuit->num_elements(), 24);
  EXPECT_TRUE(circuit->validate().empty());
  // Carry chain: the worst path into the last bit of the next stage must be
  // strictly longer than into bit 0 (ripple).
  double into_b0 = 0.0;
  double into_bLast = 0.0;
  for (const CombPath& p : circuit->paths()) {
    const std::string& dst = circuit->element(p.to).name;
    if (dst == "L_s1b0") into_b0 = std::max(into_b0, p.delay);
    if (dst == "L_s1b5") into_bLast = std::max(into_bLast, p.delay);
  }
  EXPECT_GT(into_bLast, into_b0 + 0.5);
}

TEST(Generators, OptimizesAtScale) {
  DatapathConfig cfg;
  cfg.bits = 8;
  cfg.stages = 6;
  const auto circuit = extract_timing_model(make_pipelined_datapath(cfg));
  ASSERT_TRUE(circuit);
  EXPECT_EQ(circuit->num_elements(), 48);
  const auto r = opt::minimize_cycle_time(*circuit);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_GT(r->min_cycle, 0.0);
  EXPECT_TRUE(opt::satisfies_p1(*circuit, r->schedule, r->departure, 1e-5));
  EXPECT_TRUE(sta::check_schedule(*circuit, r->schedule).feasible);
  EXPECT_FALSE(sta::check_schedule(*circuit, r->schedule.scaled(0.98)).feasible);
}

TEST(Generators, MultiPhaseVariant) {
  DatapathConfig cfg;
  cfg.bits = 3;
  cfg.stages = 6;
  cfg.num_phases = 3;
  const auto circuit = extract_timing_model(make_pipelined_datapath(cfg));
  ASSERT_TRUE(circuit);
  EXPECT_EQ(circuit->num_phases(), 3);
  const auto r = opt::minimize_cycle_time(*circuit);
  ASSERT_TRUE(r) << r.error().to_string();
  EXPECT_TRUE(sta::check_schedule(*circuit, r->schedule).feasible);
}

// ---------------------------------------------------------------------------
// Large-scale timing-graph generators (deep pipelines, meshes, SCC soups).
// Scaled-down configs here; the 10^5..10^6 shapes run in
// bench_view_fixpoint.
// ---------------------------------------------------------------------------

graph::SccResult sccs_of(const Circuit& c) {
  return graph::strongly_connected_components(c.latch_graph());
}

TEST(LargeGenerators, DeepPipelineShape) {
  DeepPipelineConfig cfg;
  cfg.depth = 20;
  cfg.width = 5;
  cfg.fanin = 2;
  cfg.num_phases = 2;
  const Circuit c = make_deep_pipeline(cfg);
  EXPECT_EQ(c.num_elements(), 100);
  // Every stage after the first contributes width * fanin edges; no ring.
  EXPECT_EQ(c.num_paths(), 19 * 5 * 2);
  EXPECT_TRUE(c.validate().empty());
  // Acyclic: all components trivial.
  const graph::SccResult scc = sccs_of(c);
  EXPECT_EQ(scc.num_components, c.num_elements());
  // Closing the ring makes the whole pipeline one component.
  cfg.ring = true;
  const graph::SccResult ring_scc = sccs_of(make_deep_pipeline(cfg));
  EXPECT_EQ(ring_scc.num_components, 1);
}

TEST(LargeGenerators, MeshShape) {
  MeshConfig cfg;
  cfg.rows = 8;
  cfg.cols = 6;
  const Circuit c = make_mesh(cfg);
  EXPECT_EQ(c.num_elements(), 48);
  // Right edges: rows * (cols-1); down edges: (rows-1) * cols.
  EXPECT_EQ(c.num_paths(), 8 * 5 + 7 * 6);
  EXPECT_TRUE(c.validate().empty());
  const graph::SccResult scc = sccs_of(c);
  EXPECT_EQ(scc.num_components, c.num_elements());  // DAG: all trivial
}

TEST(LargeGenerators, SccSoupShape) {
  SccSoupConfig cfg;
  cfg.num_sccs = 30;
  cfg.scc_size = 4;
  cfg.cross_edges = 50;
  const Circuit c = make_scc_soup(cfg);
  EXPECT_EQ(c.num_elements(), 120);
  EXPECT_EQ(c.num_paths(), 30 * 4 + 50);
  EXPECT_TRUE(c.validate().empty());
  const graph::SccResult scc = sccs_of(c);
  EXPECT_EQ(scc.num_components, 30);
  int nontrivial = 0;
  for (int s = 0; s < scc.num_components; ++s) {
    nontrivial += scc.nontrivial[static_cast<size_t>(s)] ? 1 : 0;
  }
  EXPECT_EQ(nontrivial, 30);  // cross edges go low->high ring, never merge
}

TEST(LargeGenerators, DeterministicAcrossCalls) {
  SccSoupConfig cfg;
  cfg.num_sccs = 10;
  cfg.scc_size = 3;
  cfg.cross_edges = 20;
  cfg.seed = 42;
  const Circuit a = make_scc_soup(cfg);
  const Circuit b = make_scc_soup(cfg);
  ASSERT_EQ(a.num_paths(), b.num_paths());
  for (int p = 0; p < a.num_paths(); ++p) {
    EXPECT_EQ(a.path(p).from, b.path(p).from);
    EXPECT_EQ(a.path(p).to, b.path(p).to);
  }
  cfg.seed = 43;
  const Circuit other = make_scc_soup(cfg);
  bool differs = other.num_paths() != a.num_paths();
  for (int p = 0; !differs && p < a.num_paths(); ++p) {
    differs = other.path(p).from != a.path(p).from ||
              other.path(p).to != a.path(p).to;
  }
  EXPECT_TRUE(differs);  // the seed actually feeds the topology
}

TEST(LargeGenerators, ConvergeUnderTheGeneratorSchedule) {
  // generator_schedule's Tc > k * (dq + delay) bound makes every loop's gain
  // strictly negative for all three families (see generators.h).
  DeepPipelineConfig pipe;
  pipe.depth = 30;
  pipe.width = 4;
  pipe.ring = true;
  MeshConfig mesh;
  mesh.rows = 10;
  mesh.cols = 10;
  SccSoupConfig soup;
  soup.num_sccs = 20;
  soup.scc_size = 5;
  soup.cross_edges = 40;
  const Circuit circuits[] = {make_deep_pipeline(pipe), make_mesh(mesh),
                              make_scc_soup(soup)};
  const double dq = pipe.dq;     // all three share the default timing params
  const double delay = pipe.delay;
  for (const Circuit& c : circuits) {
    const ClockSchedule sch = generator_schedule(c.num_phases(), dq, delay);
    const sta::TimingReport rep = sta::check_schedule(c, sch);
    EXPECT_TRUE(rep.converged) << c.name();
  }
}

}  // namespace
}  // namespace mintc::netlist
