// Sampling span profiler: answers "where inside the solve did the CPU go"
// without per-event cost on the measured threads.
//
// Each thread that opens TraceSpans maintains a lock-free "current span
// path" stack — a fixed array of atomic string-literal pointers plus an
// atomic depth, written only by the owning thread (plain stores through
// atomics, release on depth so a sampler that sees depth d also sees
// frames[0..d)). A single sampler thread wakes at a fixed interval, walks
// every registered stack, and tallies the observed path ("verb;stage;leaf")
// in a weighted sample map: N samples at interval T estimate N*T of
// self-time in the leaf frame.
//
// Cost model:
//   * disabled (the default): TraceSpan pays ONE relaxed atomic load —
//     the same budget as the tracer's enabled() check.
//   * enabled: push/pop are two relaxed/release stores into thread-local
//     memory; no locks, no allocation, no syscalls on the measured threads.
//     The sampler owns all the locking and runs a few hundred times a
//     second at most.
//
// Accuracy: sampling is statistical, and a sampler may race a push/pop and
// read a stale frame pointer at one level for one tick. Frame names are
// static string literals (TraceSpan takes const char*), so a torn sample
// misattributes at most one tick — it never dereferences freed memory.
//
// Thread lifecycle: stacks are registered on a thread's first push and
// marked dead (never freed) when the thread exits; dead slots are reused by
// later threads, so the registry is bounded by the peak concurrent thread
// count.
//
// Exports: collapsed-stack text (one "a;b;c N" line per path — feed
// directly to flamegraph.pl or speedscope) and a top-N self-time table.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace mintc::obs {

namespace profiler_detail {
extern std::atomic<bool> g_profiler_on;
}  // namespace profiler_detail

class Profiler {
 public:
  /// Frames beyond this depth are counted (so pop stays balanced) but not
  /// recorded; sampled paths are clamped. Deep enough for every span nest
  /// in the tree (serve.request > session > solve is depth 3).
  static constexpr int kMaxDepth = 24;

  static Profiler& instance();

  /// Is the sampler running? One relaxed load — hot-path safe.
  static bool enabled() {
    return profiler_detail::g_profiler_on.load(std::memory_order_relaxed);
  }

  /// Start the sampler thread at `interval_us` (clamped to >= 200us).
  /// Idempotent while running. Samples accumulate until clear().
  void start(long interval_us = 2000);
  /// Stop and join the sampler; accumulated samples remain readable.
  void stop();
  /// Drop accumulated samples (keeps registered thread stacks).
  void clear();

  /// Hot path, called by TraceSpan: push `name` (MUST be a string literal
  /// or otherwise immortal) onto this thread's span path if the profiler
  /// is on. Returns whether a matching pop() is owed.
  static bool try_push(const char* name) {
    if (!enabled()) return false;
    instance().push_frame(name);
    return true;
  }
  /// Pop the frame pushed by a try_push that returned true. Balanced even
  /// if the profiler was stopped in between.
  static void pop() { instance().pop_frame(); }

  struct Profile {
    long interval_us = 0;     // sampling period the ticks were taken at
    long total_samples = 0;   // thread-ticks observed (busy + idle)
    long idle_samples = 0;    // ticks where a registered thread had no span
    /// Sampled span paths ("outer;inner;leaf") with tick counts, most
    /// sampled first.
    std::vector<std::pair<std::string, long>> stacks;
  };
  Profile profile() const;

  /// Collapsed-stack flamegraph text: one "path count" line per sampled
  /// path, most sampled first. Empty string when nothing was sampled.
  std::string collapsed() const;

  /// Human-readable top-N frames by self samples (ticks observed with the
  /// frame as the innermost span), with estimated self CPU time.
  std::string top_table(int top_n = 10) const;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

 private:
  Profiler() = default;
  ~Profiler();

  struct ThreadStack {
    std::atomic<int> depth{0};
    std::array<std::atomic<const char*>, kMaxDepth> frames{};
    std::atomic<bool> live{false};
  };
  struct StackLease;  // thread-local registration handle (marks dead on exit)

  static StackLease& thread_lease();
  void push_frame(const char* name);
  void pop_frame();
  ThreadStack* lease_stack();
  void release_stack(ThreadStack* stack);
  void run_sampler();
  void sample_once();

  mutable std::mutex mu_;  // registry + samples + sampler control
  std::vector<std::unique_ptr<ThreadStack>> stacks_;
  std::map<std::string, long> samples_;
  long total_samples_ = 0;
  long idle_samples_ = 0;
  long interval_us_ = 2000;
  std::thread sampler_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
};

}  // namespace mintc::obs
