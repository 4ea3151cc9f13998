// A fixed set of worker threads fed by one FIFO queue: the socket server's
// request workers (serve/server.h). Solves never run on it; every eq. (17)
// solve is single-threaded on the thread that asks for it.
//
// One mutex guards the queue and the pending count. Tasks start in the
// order they were submitted, so under a backlog the oldest request is
// answered first and no request waits behind every later one. The server
// submits one task per request line; over the socket this served no fewer
// requests per second than per-worker deques with stealing (DESIGN §5.6).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mintc::base {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). The pool is usable
  /// immediately; tasks submitted before workers finish starting are picked
  /// up once they do.
  explicit ThreadPool(int num_threads);

  /// Runs every outstanding task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task at the back of the queue. Callable from any thread.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished and its captures are
  /// destroyed. Callable only from outside the pool (a worker calling wait()
  /// would deadlock on its own pending task). It waits for the pool to be
  /// idle, so it drains a known set of tasks only once their submitter has
  /// stopped submitting (the server joins its IO thread first).
  void wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Total tasks executed since construction.
  std::int64_t executed_count() const { return executed_.load(std::memory_order_relaxed); }

  /// Workers currently inside a task body. Together with num_threads() this
  /// yields an instantaneous utilization sample (busy / threads) — a gauge
  /// the serve layer scrapes; approximate by nature, never used for control.
  int busy_count() const { return busy_.load(std::memory_order_relaxed); }

  /// Tasks submitted and not yet finished: queued plus running.
  std::int64_t pending() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers sleep here when the queue is empty
  std::condition_variable done_cv_;   // wait() sleeps here
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  std::int64_t pending_ = 0;                 // guarded by mu_
  bool stopping_ = false;                    // guarded by mu_

  std::atomic<std::int64_t> executed_{0};
  std::atomic<int> busy_{0};
  std::vector<std::thread> workers_;  // last: the workers use every member above
};

}  // namespace mintc::base
