// ResultCache — the serve layer's rendered-response cache.
//
// A value is a read's result exactly as it went on the wire, held by a
// shared pointer: the service renders a miss once and hands those bytes to
// the cache and to its frame without a copy, and answers a hit by taking a
// reference and splicing the bytes into the frame unparsed (see service.h).
// A reference a caller holds stays readable after its entry is evicted or
// invalidated.
//
// Analyses are pure functions of circuit+schedule content, so responses are
// cached under a CONTENT key: the FNV-1a fingerprint chain the tree already
// uses for RunMetadata (AnalysisSession::content_fingerprint covers circuit
// text, schedule and — because derating rewrites the stored delays — the
// corner; the verb and its parameters are mixed in on top). Content keys
// make hits safe by construction: an entry can only be served for a state
// whose analysis is bit-identical to the one that produced it.
//
// Generation-based invalidation bounds the garbage: every entry is tagged
// with (circuit key, session generation at insert). When an edit batch or a
// (re)load bumps a circuit's generation, invalidate() drops that circuit's
// entries from older generations — they could only hit again if the exact
// content recurred (e.g. an undo), and dropping them keeps the LRU list
// from filling with dead states under sustained edit traffic.
//
// Eviction is LRU under a byte budget: each entry is charged what its
// value holds on the heap (the string's capacity, which Json::dump keeps
// within a few hundred bytes of its length) plus a fixed per-entry
// overhead. Everything is guarded by one mutex; the critical sections are
// map lookups, list splices and reference counts, never a copy of bytes.
//
// Metrics (always on, registered at construction): cache.hits, cache.misses,
// cache.evictions, cache.invalidations counters and the cache.bytes /
// cache.entries gauges — rendered by the `stats` protocol verb.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"

namespace mintc::serve {

class ResultCache {
 public:
  /// `byte_budget` bounds value bytes + per-entry overhead; 0 disables the
  /// cache entirely (every get misses, put is a no-op) — the cold lane of
  /// bench_serve.
  explicit ResultCache(size_t byte_budget);

  using Value = std::shared_ptr<const std::string>;

  /// The cached value for `key` (null on a miss), refreshing its LRU
  /// position.
  Value get(std::uint64_t key);

  /// Insert (or refresh) `value` under `key`, tagged with the owning
  /// circuit key and its session generation; evicts LRU entries until the
  /// budget holds. Values larger than the whole budget are not stored.
  /// Returns whether the cache holds the value's bytes under `key` now:
  /// false exactly when it did not fit (always, at budget 0).
  bool put(std::uint64_t key, const std::string& circuit_key, std::uint64_t generation,
           Value value);

  /// Drop every entry tagged with `circuit_key` and a generation older than
  /// `current_generation` — called when an edit batch / reload bumps the
  /// circuit's generation.
  void invalidate(const std::string& circuit_key, std::uint64_t current_generation);

  /// Drop everything (keeps the budget).
  void clear();

  struct Stats {
    long hits = 0;
    long misses = 0;
    long evictions = 0;      // budget-driven LRU drops
    long invalidations = 0;  // generation-driven drops
    size_t bytes = 0;        // current charged bytes
    size_t entries = 0;
    size_t budget = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::string circuit_key;
    std::uint64_t generation = 0;
    Value value;
    size_t charged = 0;  // value capacity + overhead
  };

  // Per-entry bookkeeping overhead charged against the budget (list node,
  // map slots, tags) — keeps thousands of tiny entries from reading as
  // "zero bytes".
  static constexpr size_t kEntryOverhead = 128;

  void drop_locked(std::list<Entry>::iterator it);

  mutable std::mutex mu_;
  size_t budget_;
  size_t bytes_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  Stats stats_;

  obs::Counter& hits_metric_;
  obs::Counter& misses_metric_;
  obs::Counter& evictions_metric_;
  obs::Counter& invalidations_metric_;
  obs::Gauge& bytes_metric_;
  obs::Gauge& entries_metric_;
};

}  // namespace mintc::serve
