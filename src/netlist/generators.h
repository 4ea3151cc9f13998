// Parameterized gate-level design generators.
//
// Produce realistic multi-stage netlists (latch banks separated by
// adder/mixer gate clouds, with end-around feedback) for the large-scale
// extraction tests and benches — the gate-level counterpart of
// circuits/synthetic.h. Deterministic: same config -> same netlist.
#pragma once

#include <cstdint>

#include "model/circuit.h"
#include "netlist/netlist.h"

namespace mintc::netlist {

struct DatapathConfig {
  int bits = 8;        // datapath width (one latch per bit per stage)
  int stages = 4;      // pipeline stages; the last feeds back into the first
  int num_phases = 2;  // stage s is clocked by phase (s mod k) + 1
  double setup = 0.3;
  double dq = 0.5;
};

/// A ring pipeline of latch banks separated by ripple-carry adder clouds.
/// Stage s's cloud mixes each bit with a carry chain, so the worst path
/// through a stage grows with `bits` — useful for exercising the extractor's
/// longest/shortest path machinery at scale.
Netlist make_pipelined_datapath(const DatapathConfig& config);

// ---------------------------------------------------------------------------
// Large-scale timing-graph generators (10^5..10^6 latches).
//
// These produce Circuits directly — at a million latches a gate-level
// netlist plus extraction would dwarf the timing analysis being measured,
// and the paper's model lumps combinational clouds into single CombPath
// delays anyway. Deterministic: same config -> same circuit, element and
// path insertion order included (the fixpoint engine suite depends on
// insertion order being reproducible, since it fixes the SCC member order).
// Every generator has a matching reference_schedule() that is provably
// convergent for eq. (17): with `slack` > 1 every feedback loop has strictly
// negative gain, so the fixpoint exists and all schemes terminate.
// ---------------------------------------------------------------------------

/// A `width`-lane, `depth`-stage pipeline: stage s lane w latches, each fed
/// by every lane of stage s-1 within a small `fanin` window. With `ring`
/// set, the last stage feeds stage 0 again (one big nontrivial SCC);
/// otherwise the circuit is acyclic and the SCC partition is all-trivial —
/// the two extremes of the fixpoint engine's SCC plan.
struct DeepPipelineConfig {
  long depth = 1000;   // stages
  int width = 100;     // latches per stage (depth * width total)
  int fanin = 2;       // stage-to-stage fan-in window per latch (>= 1)
  int num_phases = 2;  // stage s clocked by phase (s mod k) + 1
  bool ring = false;   // close the pipeline into one giant loop
  double dq = 0.5;
  double delay = 1.0;  // every CombPath's max delay
  double setup = 0.3;
};

Circuit make_deep_pipeline(const DeepPipelineConfig& config);

/// A rows x cols 2-D mesh: latch (r, c) feeds (r+1, c) and (r, c+1), phases
/// striped by anti-diagonal. Acyclic, but with a wavefront-shaped dependency
/// DAG: every latch has two upstream components, the shape a plain pipeline
/// lacks.
struct MeshConfig {
  int rows = 316;
  int cols = 316;
  int num_phases = 2;
  double dq = 0.5;
  double delay = 1.0;
  double setup = 0.3;
};

Circuit make_mesh(const MeshConfig& config);

/// `num_sccs` independent feedback rings of `scc_size` latches each, plus
/// `cross_edges` random forward edges between rings (respecting a random
/// topological order, so the rings stay the only cycles): thousands of
/// small nontrivial components, the other extreme from one giant ring.
struct SccSoupConfig {
  int num_sccs = 1000;
  int scc_size = 100;      // latches per ring
  long cross_edges = 2000; // random inter-ring forward edges
  int num_phases = 2;
  std::uint64_t seed = 1;  // drives ring phases and cross-edge placement
  double dq = 0.5;
  double delay = 1.0;
  double setup = 0.3;
};

Circuit make_scc_soup(const SccSoupConfig& config);

/// A symmetric k-phase schedule convergent for any circuit built by the
/// generators above: cycle = slack * num_phases * (dq + delay) makes every
/// phase-stepping loop's gain negative by construction (a loop of m edges
/// accumulates m*(dq + delay) of delay against m/k full cycles of schedule
/// shift). `slack` must be > 1; smaller values mean more sweeps to converge
/// (the contraction per sweep shrinks), which the benches use to scale work.
ClockSchedule generator_schedule(int num_phases, double dq, double delay,
                                 double slack = 1.10);

}  // namespace mintc::netlist
