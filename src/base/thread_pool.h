// Small work-stealing thread pool: the socket server's request workers
// (serve/server.h). Solves never run on it; every eq. (17) solve is
// single-threaded on the thread that asks for it.
//
// Design goals, in order:
//   1. Opaque tasks: the pool runs tasks and never reorders a task's side
//      effects; ordering between tasks is the submitter's business.
//   2. Nested submission: a running task may submit follow-up tasks.
//      wait() accounts for those transitively via a single pending counter.
//   3. Small and auditable over fast: per-worker mutex-protected deques with
//      LIFO pop / FIFO steal. At the granularity this repo schedules (one
//      task per client request) the mutex cost is noise; lock-free deques
//      would buy nothing but risk.
//
// Workers pop from the back of their own deque (cache-warm, depth-first on
// nested submits) and steal from the front of a victim's deque (oldest task,
// the classic Chase-Lev discipline without the lock-free machinery).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mintc::base {

/// A wait scope for a subset of a pool's tasks. The plain ThreadPool::wait()
/// blocks until the pool is GLOBALLY idle — unusable from a thread (the serve
/// listener) that needs to drain its own submissions while other threads keep
/// the pool busy indefinitely: global pending may never reach zero. A
/// TaskGroup carries its own pending counter, so wait() returns as soon as
/// the tasks submitted WITH THIS GROUP have finished, no matter what else is
/// in flight.
///
/// The group must outlive every task submitted with it. wait() is callable
/// from any thread that is not itself running one of the group's queued
/// tasks (a worker waiting on a group whose tasks sit behind it in the queue
/// would deadlock — same rule as ThreadPool::wait()).
class TaskGroup {
 public:
  /// Block until every task submitted with this group has finished.
  /// Returns immediately when none are pending. Callable concurrently from
  /// multiple threads; safe while other threads keep submitting to the same
  /// group (waits for the count observed to drain to zero).
  void wait();

  /// Tasks submitted with this group and not yet finished.
  long pending() const;

 private:
  friend class ThreadPool;
  void enter();
  void leave();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  long pending_ = 0;
};

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). The pool is usable
  /// immediately; tasks submitted before workers finish starting are picked
  /// up once they do.
  explicit ThreadPool(int num_threads);

  /// Drains nothing: outstanding tasks are still executed (the destructor
  /// wait()s), then workers are joined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Callable from any thread, including from inside a
  /// running task (nested submit): a worker pushes onto its own deque,
  /// external threads distribute round-robin.
  void submit(std::function<void()> task);

  /// Enqueue a task accounted against `group` as well as the pool: the task
  /// counts toward both TaskGroup::wait() and ThreadPool::wait(). `group`
  /// must outlive the task's execution.
  void submit(TaskGroup& group, std::function<void()> task);

  /// Block until every submitted task — including tasks submitted by tasks —
  /// has finished. Callable only from outside the pool (a worker calling
  /// wait() would deadlock on its own pending task), and only useful when no
  /// OTHER thread keeps submitting: it waits for global idleness. A thread
  /// that must drain just its own submissions while the pool serves
  /// unrelated traffic (the serve listener) should use a TaskGroup instead.
  void wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Total tasks a worker took from a deque other than its own.
  /// Observability only — exposed through obs metrics by the scheduler.
  std::int64_t steal_count() const { return steals_.load(std::memory_order_relaxed); }

  /// Total tasks executed since construction.
  std::int64_t executed_count() const { return executed_.load(std::memory_order_relaxed); }

  /// Workers currently inside a task body. Together with num_threads() this
  /// yields an instantaneous utilization sample (busy / threads) — a gauge
  /// the serve layer scrapes; approximate by nature, never used for control.
  int busy_count() const { return busy_.load(std::memory_order_relaxed); }

  /// Index of the calling worker thread in [0, num_threads()), or -1 when
  /// called from a thread that is not one of this pool's workers.
  int worker_index() const;

  /// Point-in-time view of one worker for ops introspection (the serve
  /// status dashboard's worker table). `cpu_seconds` is the worker THREAD's
  /// cumulative CPU time (CLOCK_THREAD_CPUTIME_ID, refreshed after each
  /// task; 0 where the clock is unavailable) — a skewed worker singles out
  /// a queue hot spot that the pool-wide executed/steal totals average away.
  struct WorkerStats {
    std::int64_t executed = 0;   // tasks this worker ran
    std::int64_t queued = 0;     // tasks waiting in this worker's own deque
    double cpu_seconds = 0.0;    // worker thread CPU since pool start
    bool busy = false;           // inside a task body right now
  };

  /// One entry per worker, index-aligned with worker_index(). Approximate
  /// by nature (counters are relaxed, queues are locked one at a time);
  /// observability only, never used for control.
  std::vector<WorkerStats> worker_stats() const;

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  // Per-worker observability counters, written only by the owning worker
  // (relaxed stores) and read by worker_stats().
  struct WorkerCounters {
    std::atomic<std::int64_t> executed{0};
    std::atomic<std::int64_t> cpu_ns{0};
    std::atomic<bool> busy{false};
  };

  void worker_loop(int index);
  bool try_pop_own(int index, std::function<void()>& out);
  bool try_steal(int thief, std::function<void()>& out);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::unique_ptr<WorkerCounters>> counters_;
  std::vector<std::thread> workers_;

  std::mutex control_mu_;
  std::condition_variable work_cv_;   // workers sleep here when idle
  std::condition_variable done_cv_;   // wait() sleeps here
  std::int64_t pending_ = 0;          // submitted but not yet finished
  bool stopping_ = false;

  std::atomic<std::int64_t> steals_{0};
  std::atomic<std::int64_t> executed_{0};
  std::atomic<int> busy_{0};
  std::atomic<std::uint64_t> next_queue_{0};  // round-robin for external submits
};

}  // namespace mintc::base
