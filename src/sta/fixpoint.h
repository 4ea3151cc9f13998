// Departure-time fixpoint (eq. 17):
//
//   D_i = max(0, max_j (D_j + Δ_DQj + Δ_ji + S_{pj,pi}))     (latches)
//   D_i = 0                                                  (flip-flops)
//
// with the clock schedule held fixed. This is the nonlinear heart of the SMO
// model. The operator is monotone, so:
//   * iterating from below (D = 0) converges upward to the least fixpoint —
//     the true departure times for a feasible schedule (analysis problem);
//   * iterating from above (an LP solution of P2) converges downward to the
//     same fixpoint — steps 3–5 of Algorithm MLP ("sliding" departures
//     toward the time origin).
// If the schedule admits a positive loop (overlapping phases around a
// feedback loop), the upward iteration diverges; this is detected and
// reported instead of looping forever.
//
// Every cold solve runs ONE routine, single-threaded: FixpointEngine below
// (DESIGN §5.5). eq. (17) only couples latches inside a strongly connected
// component of the latch graph (LEADOUT's partition, paper Section II), so
// the engine visits the components in topological order and solves each
// before anything downstream reads it: a component's members are swept
// Gauss-Seidel in ascending element index until no member moves by more
// than FixpointOptions::eps, and a component without a cycle gets one pass.
// A component stops at its first value past the divergence bound; the
// others still run. Member order matters only where a solve stops at the
// eps deadband with a nonzero residual (a zero-gain loop at an MLP-optimal
// schedule); ascending index is the order the plan fixes. The
// compute_departures overloads below build an engine per call. The Jacobi
// iteration the paper prints lives in check/oracle.h as the independent
// oracle the fuzzer compares against; warm_departures is the single warm
// path.
//
// The engine runs on the flattened TimingView/ShiftTable kernel layer
// (model/timing_view.h). The Circuit-based overloads are thin wrappers that
// build the view (and record the build time in FixpointResult::stats); hot
// callers evaluating many schedules against one circuit should build the
// TimingView once and pass it in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "model/circuit.h"
#include "model/timing_view.h"

namespace mintc::sta {

struct FixpointOptions {
  /// Sweep budget of each strongly connected component. <= 0 (the default)
  /// auto-scales with the element count via effective_max_sweeps(): the old
  /// fixed default of 100000 silently capped million-latch chains, whose
  /// Jacobi sweep count grows with depth.
  /// Hitting the budget is reported as FixpointStatus::kSweepLimit with the
  /// remaining residual — never as a plausible-looking converged result.
  int max_sweeps = 0;
  /// Convergence deadband: a component's sweep that moves no member by
  /// more than eps ends its iteration. It stays nonzero on purpose: at an
  /// MLP-optimal schedule the critical loop has zero gain and climbs about
  /// one ulp per sweep, so strict acceptance would exhaust the budget.
  double eps = 1e-9;

  /// The sweep budget actually enforced for a circuit of `num_elements`
  /// elements: max_sweeps when explicitly set, otherwise
  /// max(100000, 4*l + 1024) so deep pipelines cannot exhaust it before
  /// Jacobi information has crossed the circuit at least once.
  int effective_max_sweeps(int num_elements) const {
    if (max_sweeps > 0) return max_sweeps;
    const long scaled = 4L * std::max(0, num_elements) + 1024L;
    const long capped = std::max(100000L, scaled);
    return static_cast<int>(std::min<long>(capped, std::numeric_limits<int>::max()));
  }
};

/// Terminal state of one fixpoint solve. kSweepLimit is the "ran out of
/// budget" outcome: NOT converged, NOT provably diverging — the caller must
/// treat the departure vector as unusable and either raise the budget or
/// report the failure (never silently accept it).
enum class FixpointStatus { kConverged, kDiverged, kSweepLimit };

const char* to_string(FixpointStatus status);

struct FixpointResult {
  std::vector<double> departure;  // D_i at the fixpoint
  int sweeps = 0;                 // most sweeps any one component needed
  std::int64_t updates = 0;       // individual D_i recomputations
  bool converged = false;
  bool diverged = false;          // departures blew past the divergence bound
  /// Distinct terminal status; kSweepLimit means the sweep budget ran out
  /// with `residual` improvement still outstanding.
  FixpointStatus status = FixpointStatus::kSweepLimit;
  /// max_i |F(D)_i - D_i| measured at exit when the sweep budget was
  /// exhausted (one extra read-only relaxation pass); 0 otherwise.
  double residual = 0.0;
  EngineStats stats;              // per-stage timing + relaxation counts

  bool hit_sweep_limit() const { return status == FixpointStatus::kSweepLimit; }
};

/// Evaluate the right-hand side of eq. (17) for element `i` given current
/// departures. Returns 0 for flip-flops and for latches without fanin.
/// Convenience wrapper: builds a throwaway TimingView, so it costs O(l+E)
/// per call — use mintc::departure_update(view, shifts, d, i) in loops.
double departure_update(const Circuit& circuit, const ClockSchedule& schedule,
                        const std::vector<double>& departure, int i);

/// The SCC plan of a TimingView's latch graph: the components in
/// topological order (sources first), each component's members sorted by
/// element index. Built from the view's fan-out CSR by an iterative Tarjan;
/// it depends only on the view's structure, so delay, skew and schedule
/// edits keep it valid.
struct SccPlan {
  int num_components = 0;
  std::vector<int> member_offset;  // num_components + 1
  std::vector<int> members;        // ascending within each component
  std::vector<char> cyclic;        // component holds a cycle (size > 1 or a self-loop)

  explicit SccPlan(const TimingView& view);
};

/// The engine bound to one TimingView's STRUCTURE: the SCC plan is built
/// once in the constructor and amortized across solves (delay/Tc edits
/// change edge constants, not edges). The view must outlive the engine; a
/// structural edit needs a new FixpointEngine.
class FixpointEngine {
 public:
  FixpointEngine(const TimingView& view, const FixpointOptions& options = {});

  /// One full solve from `initial` (zeros for analysis, LP departures for
  /// MLP sliding). Same result contract as compute_departures, bit for bit.
  FixpointResult solve(const ShiftTable& shifts, std::vector<double> initial) const;

  int num_components() const { return plan_.num_components; }

 private:
  const TimingView& view_;
  FixpointOptions options_;
  SccPlan plan_;
};

/// Iterate eq. (17) from `initial` until convergence, divergence or the
/// sweep limit: a FixpointEngine built for this call. `initial` must have
/// one entry per element; pass all-zeros for analysis, or the LP
/// departures for Algorithm MLP.
FixpointResult compute_departures(const Circuit& circuit, const ClockSchedule& schedule,
                                  std::vector<double> initial,
                                  const FixpointOptions& options = {});

/// Same contract on a caller-owned view and shift table. Builds the SCC plan
/// per call; callers solving repeatedly against one view should own a
/// FixpointEngine instead.
FixpointResult compute_departures(const TimingView& view, const ShiftTable& shifts,
                                  std::vector<double> initial,
                                  const FixpointOptions& options = {});

/// One read-only relaxation pass: max_i |F(D)_i - D_i| under eq. (17).
/// Cheap (O(l+E)) and allocation-free; used to attach the outstanding
/// residual to sweep-limited results, and by tests.
double fixpoint_residual(const TimingView& view, const ShiftTable& shifts,
                         const std::vector<double>& departure);

/// The divergence guard of the cold and warm solves: any departure beyond this
/// bound implies a positive loop (in one period a signal cannot legitimately
/// accumulate more than every delay in the circuit plus a cycle of slack).
double divergence_bound(const TimingView& view, const ShiftTable& shifts);

/// Arrival times A_i (eq. 14) given fixed departures. Latches with no fanin
/// get -infinity (the paper's "Δ == -inf for unconnected" convention).
std::vector<double> compute_arrivals(const Circuit& circuit, const ClockSchedule& schedule,
                                     const std::vector<double>& departure);
std::vector<double> compute_arrivals(const TimingView& view, const ShiftTable& shifts,
                                     const std::vector<double>& departure);

/// Warm-start the eq. (17) iteration from a previous least fixpoint after a
/// batch of monotone-nondecreasing edge-constant changes. `departure` is the
/// old fixpoint; `seeds` are the element indices whose inputs changed (the
/// dirty edges' destinations — plus every latch when the shift table moved).
/// Event-driven propagation with STRICT acceptance (any increase, no eps)
/// converges upward to the new least fixpoint exactly: the old point
/// satisfies every inequality of the new system except possibly at the
/// seeds, and the max-plus operator stabilizes in finitely many exact steps
/// under strictly negative loop gains. The caller must ensure no edge
/// constant decreased (TimingView::max_nondecreasing); otherwise the result
/// can be a non-least fixpoint — fall back to a cold solve instead.
/// The climb gets 8 sweeps' worth of updates (8 * l; fewer when max_sweeps
/// is set lower) and reports kSweepLimit past that: the caller falls back
/// to a cold solve then too.
/// When `raised` is set, every element whose departure rose is appended to
/// it once: with their fan-out, these are the only elements whose departure
/// or arrival the solve moved.
FixpointResult warm_departures(const TimingView& view, const ShiftTable& shifts,
                               std::vector<double> departure, const std::vector<int>& seeds,
                               const FixpointOptions& options = {},
                               std::vector<int>* raised = nullptr);

}  // namespace mintc::sta
