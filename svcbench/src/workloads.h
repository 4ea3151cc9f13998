// The three seeded workloads and the request verbs they share.
//
// Every request goes through Verbs, which sends it, keeps the harness's
// mirror of the service's session in step, checks the answer (outside the
// timed interval) and, in a traced run, replays the request's work through
// the layers' public functions as child spans of the request span.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "sta/session.h"

namespace svcbench {

class Ledger;

/// Counts requests that failed: ok:false or a failed correctness check.
/// Each request is checked once and counts at most one failure.
struct Gate {
  long failed = 0;
  void fail(const std::string& what);
};

/// One design as the harness tracks it.
struct Design {
  std::string key;
  std::string lct;                   // .lct text sent with `load`
  std::string lcs;                   // .lcs text; "" makes `load` run MLP
  std::vector<double> base_delay;    // per path, as loaded
  std::vector<int> raised;           // paths an edit raised (may be stale)
  std::unique_ptr<mintc::sta::AnalysisSession> mirror;  // the service's state
};

class Verbs {
 public:
  Verbs(Client& client, Gate& gate, Ledger* ledger)
      : client_(client), gate_(gate), ledger_(ledger) {}

  Reply load(Design& d);
  Reply edit(Design& d, const std::vector<std::pair<int, double>>& delays);
  Reply undo_to(Design& d, size_t mark);
  Reply analyze(Design& d, bool detail);
  Reply report(Design& d, const std::string& format, bool signoff);
  Reply sweep(Design& d);
  Reply min(Design& d, bool apply);

  /// Setup requests stay out of the cache-hit ratio: a first analyze can
  /// never hit.
  void set_in_setup(bool in_setup) { in_setup_ = in_setup; }

 private:
  /// The common tail of every request: count it, replay the frame codec in
  /// traced runs, and check the cache contract for cacheable reads.
  void finish(Reply& r, const Design& d, bool cacheable, std::string& err);
  /// Replay Algorithm MLP on `circuit` under span `parent` (traced runs).
  void replay_mlp(const mintc::Circuit& circuit, int parent);
  /// Analyze the mirror under span `parent`, classified warm or cold.
  void replay_analyze(Design& d, int parent);
  void check(const Reply& r, const std::string& err);

  Client& client_;
  Gate& gate_;
  Ledger* ledger_;
  bool in_setup_ = false;
  /// Request line -> (fingerprint, result payload) of its last answer.
  std::map<std::string, std::pair<std::string, std::string>> answers_;
};

/// A workload: its designs, its setup repetitions and one loop iteration.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// What p50_ms / p95_ms time.
  virtual const char* primary_op() const = 0;
  /// Setups per run; setup_s is their median.
  virtual int setup_reps() const = 0;
  /// Build the designs (harness side, untimed). They are fixed per
  /// workload, so every seed does the same amount of work per request.
  virtual std::vector<Design> make_designs() const = 0;
  /// Restart the traffic generator; the seed picks every edit and read.
  virtual void reset(std::uint64_t seed) = 0;
  /// One loop iteration; appends the latency of each primary op in ms.
  virtual void step(Verbs& verbs, std::vector<Design>& designs, long iteration,
                    std::vector<double>& primary_ms) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// The paper's pinned answers through the service (example 1 Tc* = 110,
/// example 2 Tc* = 70, GaAs Tc* = 4.4 with 91 LP rows). Returns the number
/// of requests sent; failures go to `gate`.
long check_paper_pins(Gate& gate);

}  // namespace svcbench
