#include "base/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <ctime>
#include <utility>

namespace mintc::base {

namespace {

// Cumulative CPU time of the calling thread, for the per-worker stats.
// Degrades to 0 where the per-thread clock is unavailable.
std::int64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#else
  return 0;
#endif
}

// Identifies the pool (if any) the current thread belongs to, so nested
// submit() calls land on the submitting worker's own deque and
// worker_index() works without a map lookup.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local int tl_index = -1;
}  // namespace

void TaskGroup::enter() {
  const std::lock_guard<std::mutex> lk(mu_);
  ++pending_;
}

void TaskGroup::leave() {
  // Notify while holding the lock: once pending_ reaches 0 and the lock is
  // released, wait() may return and its caller destroy the group, so cv_
  // must not be touched after the unlock.
  const std::lock_guard<std::mutex> lk(mu_);
  if (--pending_ == 0) cv_.notify_all();
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return pending_ == 0; });
}

long TaskGroup::pending() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return pending_;
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  queues_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) queues_.push_back(std::make_unique<Queue>());
  counters_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) counters_.push_back(std::make_unique<WorkerCounters>());
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait();
  {
    const std::lock_guard<std::mutex> lk(control_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::worker_index() const { return tl_pool == this ? tl_index : -1; }

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out(counters_.size());
  for (size_t i = 0; i < counters_.size(); ++i) {
    const WorkerCounters& c = *counters_[i];
    out[i].executed = c.executed.load(std::memory_order_relaxed);
    out[i].cpu_seconds =
        static_cast<double>(c.cpu_ns.load(std::memory_order_relaxed)) * 1e-9;
    out[i].busy = c.busy.load(std::memory_order_relaxed);
    const std::lock_guard<std::mutex> qlk(queues_[i]->mu);
    out[i].queued = static_cast<std::int64_t>(queues_[i]->tasks.size());
  }
  return out;
}

void ThreadPool::submit(std::function<void()> task) {
  assert(task && "null task submitted");
  int q = worker_index();
  if (q < 0) {
    q = static_cast<int>(next_queue_.fetch_add(1, std::memory_order_relaxed) %
                         queues_.size());
  }
  {
    // Lock order everywhere is control_mu_ then queue mu. Publishing the
    // task while holding control_mu_ is what makes the idle-worker predicate
    // race-free: a worker deciding to sleep holds control_mu_ across its
    // final emptiness check, so it either sees this task or is already
    // waiting when the notify fires.
    const std::lock_guard<std::mutex> lk(control_mu_);
    ++pending_;
    const std::lock_guard<std::mutex> qlk(queues_[static_cast<size_t>(q)]->mu);
    queues_[static_cast<size_t>(q)]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::submit(TaskGroup& group, std::function<void()> task) {
  assert(task && "null task submitted");
  // enter() before enqueue so a concurrent group.wait() that races the
  // submission can never observe pending == 0 between enqueue and execute.
  group.enter();
  submit([&group, t = std::move(task)] {
    t();
    group.leave();
  });
}

void ThreadPool::wait() {
  assert(worker_index() < 0 && "wait() from a worker would deadlock");
  std::unique_lock<std::mutex> lk(control_mu_);
  done_cv_.wait(lk, [&] { return pending_ == 0; });
}

bool ThreadPool::try_pop_own(int index, std::function<void()>& out) {
  Queue& q = *queues_[static_cast<size_t>(index)];
  const std::lock_guard<std::mutex> lk(q.mu);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());  // LIFO on own deque: depth-first, cache-warm
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::try_steal(int thief, std::function<void()>& out) {
  const int n = static_cast<int>(queues_.size());
  for (int step = 1; step < n; ++step) {
    const int victim = (thief + step) % n;
    Queue& q = *queues_[static_cast<size_t>(victim)];
    const std::lock_guard<std::mutex> lk(q.mu);
    if (q.tasks.empty()) continue;
    out = std::move(q.tasks.front());  // FIFO steal: take the oldest task
    q.tasks.pop_front();
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(int index) {
  tl_pool = this;
  tl_index = index;
  std::function<void()> task;
  const auto have_queued_task = [&] {
    for (const std::unique_ptr<Queue>& q : queues_) {
      const std::lock_guard<std::mutex> qlk(q->mu);
      if (!q->tasks.empty()) return true;
    }
    return false;
  };
  for (;;) {
    if (try_pop_own(index, task) || try_steal(index, task)) {
      WorkerCounters& me = *counters_[static_cast<size_t>(index)];
      busy_.fetch_add(1, std::memory_order_relaxed);
      me.busy.store(true, std::memory_order_relaxed);
      task();
      task = nullptr;
      me.busy.store(false, std::memory_order_relaxed);
      busy_.fetch_sub(1, std::memory_order_relaxed);
      executed_.fetch_add(1, std::memory_order_relaxed);
      me.executed.fetch_add(1, std::memory_order_relaxed);
      me.cpu_ns.store(thread_cpu_ns(), std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lk(control_mu_);
      if (--pending_ == 0) done_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lk(control_mu_);
    work_cv_.wait(lk, [&] { return stopping_ || have_queued_task(); });
    if (stopping_) return;  // wait() in ~ThreadPool drained everything first
  }
}

}  // namespace mintc::base
