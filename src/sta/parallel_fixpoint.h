// The eq. (17) fixpoint engine: one SCC-ordered routine for every cold
// solve, at every thread count (DESIGN §5.5).
//
// eq. (17) only couples latches inside a strongly connected component of
// the latch graph (LEADOUT's partition, paper Section II), so the engine
// visits the components in topological order and solves each before
// anything downstream reads it: a component's members are swept
// Gauss-Seidel in ascending element index until no member moves by more
// than FixpointOptions::eps, and a component without a cycle gets one pass.
// compute_departures, check_schedule, AnalysisSession cold solves, the MLP
// slide and the graph solver's departures all run this routine.
//
// The thread count decides WHO runs a component, never what it computes.
// With at most one thread the components run inline on the calling thread
// and no ThreadPool exists; with more, ready components run on a pool,
// released by per-component predecessor counts (a task chains down its
// dependency spine inline and forks only surplus ready components). A
// component reads only its own members and finished upstream components
// (the final acq_rel predecessor decrement orders every upstream store
// before every downstream load), components never share members, and the
// scalar and AVX2 kernels return identical bits — so every outcome,
// converged, diverged or sweep-limited, is bitwise the same at every thread
// count. A component stops at its first value past the divergence bound;
// the others still run. Member order matters only where a solve stops at
// the eps deadband with a nonzero residual (a zero-gain loop at an
// MLP-optimal schedule); ascending index is the order the plan fixes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/thread_pool.h"
#include "model/timing_view.h"
#include "sta/fixpoint.h"
#include "sta/relax_kernel.h"

namespace mintc::sta {

/// The SCC plan of a TimingView's latch graph: the components in
/// topological order (sources first), each component's members sorted by
/// element index, and the condensation the pooled scheduler releases
/// components along. Built from the view's fan-out CSR by an iterative
/// Tarjan; it depends only on the view's structure, so delay, skew and
/// schedule edits keep it valid.
struct SccPlan {
  int num_components = 0;
  std::vector<int> member_offset;  // num_components + 1
  std::vector<int> members;        // ascending within each component
  std::vector<char> cyclic;        // component holds a cycle (size > 1 or a self-loop)
  // Condensation: cross-component successor lists with edge multiplicity
  // preserved (predecessor counts use the same multiplicity, so a component
  // becomes ready exactly when its last cross edge resolves).
  std::vector<EdgeIndex> succ_offset;  // num_components + 1
  std::vector<int> succ;
  std::vector<int> pred_count;
  std::vector<int> roots;  // components without predecessors

  explicit SccPlan(const TimingView& view);

  int num_cyclic() const;
};

struct ParallelFixpointOptions {
  /// Worker count. At most 1 runs every component inline on the calling
  /// thread, with no pool.
  int num_threads = 1;
  /// Inner-loop kernel; kAuto resolves to AVX2 when the host supports it.
  RelaxKernelKind kernel = RelaxKernelKind::kAuto;
  /// Sweep budget per component and convergence deadband.
  FixpointOptions fixpoint;
};

/// Per-solve scheduler observability, also exported as obs metrics
/// (parallel.* counters/histograms) by pooled solves.
struct ParallelSolveStats {
  int sccs = 0;             // components in the partition
  int nontrivial_sccs = 0;  // components containing a cycle
  int threads = 0;          // workers actually used
  int max_shard_sweeps = 0; // deepest local sweep count over all shards
  std::int64_t tasks = 0;   // pool submissions (0 for an inline solve)
  std::int64_t steals = 0;  // cross-deque takes during this solve
  RelaxKernelKind kernel = RelaxKernelKind::kScalar;  // resolved kernel
};

/// The engine bound to one TimingView's STRUCTURE: the SCC plan is built
/// once in the constructor and amortized across solves (delay/Tc edits
/// change edge constants, not edges). The view must outlive the engine; a
/// structural edit needs a new ParallelFixpoint.
class ParallelFixpoint {
 public:
  ParallelFixpoint(const TimingView& view, const ParallelFixpointOptions& options = {});

  /// One full solve from `initial` (zeros for analysis, LP departures for
  /// MLP sliding). Same result contract as compute_departures, bit for bit.
  FixpointResult solve(const ShiftTable& shifts, std::vector<double> initial);

  /// Scheduler counters of the most recent solve().
  const ParallelSolveStats& last_stats() const { return stats_; }

  int num_threads() const { return stats_.threads; }
  int num_components() const { return plan_.num_components; }
  RelaxKernelKind kernel() const { return kernel_; }

 private:
  struct SolveCtx;

  void run_chain(SolveCtx& ctx, int comp);

  const TimingView& view_;
  ParallelFixpointOptions options_;
  RelaxKernelKind kernel_;
  RelaxRunFn relax_fn_;
  SccPlan plan_;
  std::unique_ptr<base::ThreadPool> pool_;  // only with more than one thread
  ParallelSolveStats stats_;
};

}  // namespace mintc::sta
