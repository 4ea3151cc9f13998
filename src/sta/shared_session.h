// Thread-safe facade over AnalysisSession: the one-writer-per-circuit lock.
//
// AnalysisSession is deliberately single-threaded — its warm-start machinery
// mutates a TimingView in place, so two concurrent writers would corrupt the
// incremental state. The serve layer (src/serve) holds many sessions, one
// per circuit key, and many worker threads race to use them; SharedSession
// is the boundary: it owns the session and a mutex, and the ONLY way to
// reach the session is through with(), which runs the callback under the
// lock. Requests for the same circuit key therefore serialize (edit batches
// are atomic with respect to concurrent analyzes), while requests for
// different keys proceed in parallel.
//
// The facade adds no caching or cleverness of its own — hit-rate and warm
// accounting live in AnalysisSession, cross-request result caching in
// serve::ResultCache.
#pragma once

#include <mutex>
#include <utility>

#include "sta/session.h"

namespace mintc::sta {

class SharedSession {
 public:
  /// Constructs the owned AnalysisSession in place (the session is
  /// non-movable once its fixpoint engine is built).
  template <typename... Args>
  explicit SharedSession(Args&&... args) : session_(std::forward<Args>(args)...) {}

  /// Run `fn(AnalysisSession&)` under the writer lock and return its result.
  /// Do not let references into the session escape the callback.
  template <typename Fn>
  auto with(Fn&& fn) -> decltype(fn(std::declval<AnalysisSession&>())) {
    const std::lock_guard<std::mutex> lk(mu_);
    return fn(session_);
  }

  /// Non-blocking variant for opportunistic work (LRU eviction probes):
  /// returns false without running `fn` when another writer holds the lock.
  template <typename Fn>
  bool try_with(Fn&& fn) {
    const std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
    if (!lk.owns_lock()) return false;
    fn(session_);
    return true;
  }

 private:
  std::mutex mu_;
  AnalysisSession session_;
};

}  // namespace mintc::sta
