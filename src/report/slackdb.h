// SlackDB — the signoff-grade timing report database.
//
// PR 3 gave the tree observability *primitives* (metrics, spans, constraint
// provenance); this module materializes the questions a designer actually
// asks of a latch-based design, PrimeTime-style:
//   * where is the slack?        per-endpoint setup/hold slack records,
//                                per-path propagation slack, histograms;
//   * who borrows time?          per-latch borrow max(0, D_i) — how far the
//                                data departs after the enabling edge, i.e.
//                                how much of the phase the latch "borrowed"
//                                across the cycle boundary — plus borrow
//                                chains following the eq. (17) arg-max
//                                predecessors, and the loop totals;
//   * what are the N worst?      top-K endpoints and paths, -nworst style.
//
// A SlackDB is built from ONE analysis (check_schedule with provenance +
// hold, whose provenance pass also yields every path's propagation slack)
// plus the LP row census, flattened into plain records — a strictly opt-in
// pass that never executes inside engine hot loops. Exporters live in
// report/export.h (JSON / text table / self-contained HTML dashboard).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "model/circuit.h"
#include "sta/analysis.h"
#include "sta/corners.h"

namespace mintc::report {

struct SlackDbOptions {
  int nworst = 10;          // size of the worst-endpoint / worst-path lists
  bool check_hold = true;   // include the short-path (hold) records
};

/// One synchronizing element's complete timing record.
struct EndpointRecord {
  int element = -1;
  std::string name;
  ElementKind kind = ElementKind::kLatch;
  int phase = 1;
  double departure = 0.0;    // D_i, relative to the start of its phase
  double arrival = 0.0;      // A_i (-inf when no fanin)
  double skew = 0.0;         // σ_i, clock uncertainty charged at this capture
  double setup_slack = 0.0;
  double hold_slack = 0.0;   // +inf when unchecked / no fanin
  /// Time borrowed from the phase: max(0, D_i) for latches (data flowed
  /// through the transparent latch D_i past the enabling edge), 0 for
  /// flip-flops (departure pinned to the edge).
  double borrow = 0.0;
  int origin_path = -1;      // eq. (17) arg-max path (provenance); -1 = clamp
  int origin_from = -1;      // source element of that path (-1 = clamp)
  /// Tight constraint classes at this endpoint ("L1" zero setup slack,
  /// "L2" departure carried by a propagation edge, "L3" departs at the edge).
  std::vector<std::string> tight;
};

/// One combinational path's propagation-slack record.
struct PathRecord {
  int path = -1;
  std::string from, to, label;
  double delay = 0.0;   // Δ_ij
  double slack = 0.0;   // L2R slack at the fixpoint (0 = critical segment)
  bool tight = false;
};

/// A maximal walk of borrowing latches along eq. (17) arg-max predecessors,
/// worst (most downstream) latch first. Ends at a latch that departs on its
/// enabling edge, or closes a critical loop.
struct BorrowChain {
  std::vector<int> elements;
  std::vector<int> paths;        // connecting path ids (size-1; size if loop)
  double total_borrow = 0.0;     // sum of member borrows
  bool is_loop = false;
};

/// Plain-data snapshot of an obs::Histogram over one slack population.
struct HistogramSummary {
  std::vector<double> bounds;    // ascending upper bounds
  std::vector<long> buckets;     // bounds.size() + 1 (+inf bucket)
  long count = 0;
  double sum = 0.0, min = 0.0, max = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

struct SlackDB {
  std::string circuit;
  std::string corner;            // corner id ("" for single-corner builds)
  ClockSchedule schedule;
  bool feasible = false;
  double tc = 0.0;
  int num_constraints = 0;       // LP row census (the paper's "91" for GaAs)
  /// Phase pairs (i, j), i < j, whose active intervals overlap modulo Tc
  /// (e.g. the GaAs phi3-inside-phi1 schedule reports {1, 3}).
  std::vector<std::pair<int, int>> overlapping_phases;

  std::vector<EndpointRecord> endpoints;  // index-aligned with the circuit
  std::vector<PathRecord> paths;
  std::vector<int> worst_endpoints;  // element ids, worst setup slack first
  std::vector<int> worst_paths;      // path ids, smallest slack first
  std::vector<BorrowChain> borrow_chains;  // sorted by total borrow, desc
  double total_borrow = 0.0;         // sum over all endpoints
  /// Skew-tolerance summary: the largest per-endpoint σ and the additional
  /// UNIFORM skew the design absorbs before its worst setup slack goes
  /// negative (slack is linear in a uniform skew increment, so this is just
  /// the worst slack itself when feasible; 0 when already failing).
  double max_skew = 0.0;
  double skew_tolerance = 0.0;

  HistogramSummary setup_hist;   // finite setup slacks
  HistogramSummary borrow_hist;  // latch borrow amounts

  /// The underlying analysis (slacks here are authoritative: every record
  /// above is copied from it, which report_tests cross-checks to 1e-9).
  sta::TimingReport analysis;
  double build_seconds = 0.0;

  double worst_setup_slack() const;
  double worst_hold_slack() const;
};

/// Build the database for one design point. Runs analysis (+hold, +
/// provenance) and the constraint census once; also sets the headline
/// gauges report.* in the process-wide metrics registry, labeled by circuit
/// (and corner), so they describe the latest build. The slack distribution
/// is the database's own setup_hist.
SlackDB build_slackdb(const Circuit& circuit, const ClockSchedule& schedule,
                      const SlackDbOptions& options = {});

/// Multi-corner signoff: one SlackDB per corner plus the merged
/// worst-corner view (per-endpoint minimum slack over all corners). The
/// corners derate one sta::AnalysisSession, visited in ascending
/// delay_scale so each warm-starts from the last; every corner's analysis
/// is bit-identical to check_schedule of sta::derate(circuit, corner).
struct SignoffDB {
  std::vector<SlackDB> corners;
  /// Per element: worst (minimum) slack across corners, and which corner.
  std::vector<double> merged_setup_slack;
  std::vector<int> merged_setup_corner;
  std::vector<double> merged_hold_slack;
  std::vector<int> merged_hold_corner;
  std::vector<int> merged_worst_endpoints;  // by merged setup slack
  bool all_pass = false;
};

SignoffDB build_signoff(const Circuit& circuit, const ClockSchedule& schedule,
                        const std::vector<sta::Corner>& corners = sta::standard_corners(),
                        const SlackDbOptions& options = {});

}  // namespace mintc::report
