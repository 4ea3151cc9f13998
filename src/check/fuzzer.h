// Seeded random-circuit fuzzer over the differential oracle.
//
// Each fuzz seed deterministically draws a circuit — a randomized
// multi-phase synthetic ring (circuits/synthetic.h), sometimes a gate-level
// datapath extracted into the timing model (netlist/generators.h +
// netlist/extract.h), sometimes with latches converted to flip-flops — and
// runs the full cross-engine agreement matrix of check_circuit() on it. On
// a failure the shrinker (shrink.h) reduces the circuit to a locally
// minimal repro that still fails the same check, and the repro is written
// out as a `.lct` file ready for a regression test.
//
// Everything is a pure function of (base_seed, seed index): a failing seed
// reported by CI replays bit-for-bit locally via fuzz_circuit(seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/differential.h"
#include "model/circuit.h"

namespace mintc::check {

struct FuzzOptions {
  uint64_t base_seed = 1;
  int num_seeds = 100;
  DifferentialOptions diff;
  bool shrink_failures = true;
  /// Directory to write shrunk repros into ("" = keep them in memory only).
  std::string repro_dir;
  /// Stop fuzzing after this many failing seeds.
  int max_failures = 10;
};

struct FuzzFailure {
  uint64_t seed = 0;
  std::vector<CheckFailure> failures;  // from the unshrunk circuit
  std::string repro_lct;               // shrunk minimal repro as .lct text
  std::string repro_path;              // file written, if repro_dir was set
  /// Chrome trace + metrics dump of the failing check replayed on the
  /// shrunk circuit, written next to the repro (when repro_dir was set).
  std::string trace_path;
  std::string metrics_path;
  /// Signoff report (JSON SlackDB) of the shrunk circuit at its own MLP
  /// optimum — slack/borrow context for diagnosing the divergence. Empty
  /// when the shrunk circuit has no feasible schedule.
  std::string report_path;
  int original_elements = 0;
  int original_paths = 0;
  int shrunk_elements = 0;
  int shrunk_paths = 0;
  int shrink_attempts = 0;
};

struct FuzzResult {
  int circuits_checked = 0;
  int feasible = 0;  // circuits where the engines produced a schedule
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
};

/// The deterministic circuit drawn for one fuzz seed.
Circuit fuzz_circuit(uint64_t seed);

/// Fuzz seeds [base_seed, base_seed + num_seeds) through the differential
/// oracle, shrinking and dumping every failure.
FuzzResult run_fuzz(const FuzzOptions& options);

}  // namespace mintc::check
