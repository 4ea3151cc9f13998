// Per-request cost attribution: a CostAccount accumulates the CPU time and
// engine work (edge relaxations, sweeps, solves) a single request caused.
//
// Wiring: the serve handler owns a CostAccount for the request and installs
// a pointer to it on its thread with a CostScope. The whole request, every
// solve included, runs on the handler's thread, so the engines find the
// account there and charge it with plain adds.
//
// Charging discipline:
//   * CPU time: the handler thread measures its own thread CPU clock
//     (CLOCK_THREAD_CPUTIME_ID) around the whole request and adds the
//     delta: parsing the frame, the verb's solves and cache lookups,
//     rendering and encoding the response. The total is real CPU burned,
//     not wall time — a request that waited in a queue is not charged for
//     the wait.
//   * Engine work: the fixpoint engines charge relaxations/sweeps ONCE at
//     solve completion from their own EngineStats, so the account matches
//     what `stats` reports bit-for-bit and nothing is double counted.
//
// Cache hits charge (almost) nothing by construction: a cached response
// never reaches an engine, so only the handler's lookup/render CPU appears.
//
// When no account is installed (cost attribution off, or a worker running
// someone else's task) every charge helper is a pointer test — the hot
// paths stay within the telemetry overhead budget.
#pragma once

#include <cstdint>

namespace mintc::obs {

/// Work attributed to one request. Charged and read on the request's
/// handler thread only.
struct CostAccount {
  std::int64_t cpu_us = 0;        // thread CPU time, microseconds
  std::int64_t relaxations = 0;   // eq.17 edge relaxations
  std::int64_t sweeps = 0;        // fixpoint sweeps per solve, summed
  std::int64_t solves = 0;        // engine solve completions

  void add_cpu_us(std::int64_t us) {
    if (us > 0) cpu_us += us;
  }
  void add_solve(std::int64_t relaxed_edges, std::int64_t sweep_count) {
    relaxations += relaxed_edges;
    sweeps += sweep_count;
    ++solves;
  }
};

/// The calling thread's current account (nullptr when none installed). One
/// thread-local read; safe on hot paths when hoisted out of inner loops.
CostAccount* current_cost_account();

/// RAII: install an account on the calling thread (or nullptr, which masks
/// an outer one) for a scope and restore the previous one on exit.
class CostScope {
 public:
  explicit CostScope(CostAccount* account);
  ~CostScope();
  CostScope(const CostScope&) = delete;
  CostScope& operator=(const CostScope&) = delete;

 private:
  CostAccount* previous_;
};

/// This thread's CPU time in microseconds (CLOCK_THREAD_CPUTIME_ID).
/// Returns 0 where the clock is unavailable, so deltas degrade to zero
/// rather than garbage.
std::int64_t thread_cpu_now_us();

/// RAII: measure this thread's CPU time across a scope and charge the delta
/// to the account captured at CONSTRUCTION (so a task that installs the
/// request's CostScope after constructing the timer still charges correctly
/// — pass the account explicitly in that case). No-op when account is null.
class ThreadCpuTimer {
 public:
  explicit ThreadCpuTimer(CostAccount* account)
      : account_(account), start_us_(account ? thread_cpu_now_us() : 0) {}
  ~ThreadCpuTimer() {
    if (account_ != nullptr) account_->add_cpu_us(elapsed_us());
  }
  /// This thread's CPU time since construction (0 without an account).
  std::int64_t elapsed_us() const {
    return account_ != nullptr ? thread_cpu_now_us() - start_us_ : 0;
  }
  ThreadCpuTimer(const ThreadCpuTimer&) = delete;
  ThreadCpuTimer& operator=(const ThreadCpuTimer&) = delete;

 private:
  CostAccount* account_;
  std::int64_t start_us_;
};

/// Charge a completed engine solve to the current thread's account, if any.
/// Called once per solve by the fixpoint engine with the EngineStats
/// totals, keeping account == stats by construction.
void charge_solve(std::int64_t relaxations, std::int64_t sweeps);

}  // namespace mintc::obs
