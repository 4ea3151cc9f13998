// The traced run's per-layer ledger: spans around every request plus the
// replayed layer calls beneath them, and counts sampled at the same
// boundaries. finish() turns them into the per-layer table.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace svcbench {

class Ledger {
 public:
  SpanLog spans;

  /// One sample of a count or ratio metric (ratios sample 0 or 1).
  void count(const std::string& name, double value) { counts_[name].push_back(value); }

  /// Rates of the untraced and traced passes over the same request prefix.
  struct Overhead {
    double untraced_rps = 0.0;
    double traced_rps = 0.0;
    long requests = 0;
  };

  /// Print the per-layer table, the per-verb unattributed remainder and the
  /// tracing overhead; write the spans and the table under `file_stem`
  /// (".trace.json", ".ledger.json") unless it is empty. Returns the
  /// per_layer metrics of BENCHMARK.json as {"name": {"value", "unit"}}.
  Json finish(const std::string& workload, const Overhead& overhead,
              const std::string& file_stem) const;

 private:
  std::map<std::string, std::vector<double>> counts_;
};

}  // namespace svcbench
