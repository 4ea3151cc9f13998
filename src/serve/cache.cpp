#include "serve/cache.h"

#include <utility>

namespace mintc::serve {

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::instance(); }

}  // namespace

ResultCache::ResultCache(size_t byte_budget)
    : budget_(byte_budget),
      hits_metric_(registry().counter("cache.hits")),
      misses_metric_(registry().counter("cache.misses")),
      evictions_metric_(registry().counter("cache.evictions")),
      invalidations_metric_(registry().counter("cache.invalidations")),
      bytes_metric_(registry().gauge("cache.bytes")),
      entries_metric_(registry().gauge("cache.entries")) {
  stats_.budget = budget_;
}

ResultCache::Value ResultCache::get(std::uint64_t key) {
  const std::lock_guard<std::mutex> lk(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    misses_metric_.inc();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh: move to front
  ++stats_.hits;
  hits_metric_.inc();
  return it->second->value;
}

bool ResultCache::put(std::uint64_t key, const std::string& circuit_key,
                      std::uint64_t generation, Value value) {
  const size_t charged = value->capacity() + kEntryOverhead;
  const std::lock_guard<std::mutex> lk(mu_);
  if (charged > budget_) return false;  // cannot fit even alone (covers budget 0)
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Same content key: refresh the tag and LRU position; the value is
    // necessarily identical (content-addressed), so keep the old bytes.
    it->second->circuit_key = circuit_key;
    it->second->generation = generation;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  while (bytes_ + charged > budget_ && !lru_.empty()) {
    ++stats_.evictions;
    evictions_metric_.inc();
    drop_locked(std::prev(lru_.end()));
  }
  lru_.push_front(Entry{key, circuit_key, generation, std::move(value), charged});
  index_[key] = lru_.begin();
  bytes_ += charged;
  stats_.bytes = bytes_;
  stats_.entries = lru_.size();
  bytes_metric_.set(static_cast<double>(bytes_));
  entries_metric_.set(static_cast<double>(lru_.size()));
  return true;
}

void ResultCache::invalidate(const std::string& circuit_key,
                             std::uint64_t current_generation) {
  const std::lock_guard<std::mutex> lk(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    const auto next = std::next(it);
    if (it->circuit_key == circuit_key && it->generation < current_generation) {
      ++stats_.invalidations;
      invalidations_metric_.inc();
      drop_locked(it);
    }
    it = next;
  }
}

void ResultCache::clear() {
  const std::lock_guard<std::mutex> lk(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  stats_.bytes = 0;
  stats_.entries = 0;
  bytes_metric_.set(0.0);
  entries_metric_.set(0.0);
}

ResultCache::Stats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ResultCache::drop_locked(std::list<Entry>::iterator it) {
  bytes_ -= it->charged;
  index_.erase(it->key);
  lru_.erase(it);
  stats_.bytes = bytes_;
  stats_.entries = lru_.size();
  bytes_metric_.set(static_cast<double>(bytes_));
  entries_metric_.set(static_cast<double>(lru_.size()));
}

}  // namespace mintc::serve
