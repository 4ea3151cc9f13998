// LRU / byte-budget / generation-invalidation tests for the result cache,
// and the sharing of its values: a hit hands out the stored bytes, not a
// copy, and a reference stays readable after its entry is gone.
#include "serve/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace mintc::serve {
namespace {

// kEntryOverhead is private; 128 mirrored here so budgets below are exact.
constexpr size_t kOverhead = 128;

using Value = ResultCache::Value;

Value value(std::string text) { return std::make_shared<const std::string>(std::move(text)); }

// Values longer than the small-string buffer, so each holds exactly its
// length on the heap (capacity == size) and the byte counts below are exact.
const std::string kA(32, 'a');
const std::string kB(32, 'b');
const std::string kC(32, 'c');

std::string text_of(const Value& v) { return v ? *v : "-"; }

TEST(ServeCache, MissThenHit) {
  ResultCache cache(1 << 20);
  EXPECT_EQ(cache.get(1), nullptr);
  cache.put(1, "c", 0, value(kA));
  EXPECT_EQ(text_of(cache.get(1)), kA);
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, kA.size() + kOverhead);
}

TEST(ServeCache, PutOnExistingKeyRefreshesTagsAndKeepsBytes) {
  // Keys are content-addressed: a re-put under the same key necessarily
  // carries identical content, so the implementation keeps the stored bytes
  // and only refreshes the (circuit, generation) tag + LRU position.
  ResultCache cache(1 << 20);
  const Value first = value(kA);
  cache.put(1, "c", 0, first);
  cache.put(1, "c", 5, value(kA));
  EXPECT_EQ(cache.get(1), first);
  EXPECT_EQ(cache.stats().entries, 1u);
  // The refreshed generation tag protects the entry from invalidation of
  // generations older than 5.
  cache.invalidate("c", 5);
  EXPECT_NE(cache.get(1), nullptr);
  cache.invalidate("c", 6);
  EXPECT_EQ(cache.get(1), nullptr);
}

TEST(ServeCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Budget fits exactly two 32-byte entries.
  ResultCache cache(2 * (kA.size() + kOverhead));
  cache.put(1, "c", 0, value(kA));
  cache.put(2, "c", 0, value(kB));
  EXPECT_NE(cache.get(1), nullptr);  // 1 is now most recently used
  cache.put(3, "c", 0, value(kC));   // evicts 2, the LRU entry
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ServeCache, ValueLargerThanBudgetIsNotStored) {
  ResultCache cache(kOverhead + 4);
  cache.put(1, "c", 0, value(std::string(64, 'x')));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCache, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  cache.put(1, "c", 0, value("v"));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCache, InvalidateDropsOlderGenerationsOfOneCircuit) {
  ResultCache cache(1 << 20);
  cache.put(1, "a", 3, value("a-gen3"));
  cache.put(2, "a", 5, value("a-gen5"));
  cache.put(3, "b", 1, value("b-gen1"));
  cache.invalidate("a", 5);  // drops generation < 5 entries of "a" only
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_NE(cache.get(2), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1);
}

TEST(ServeCache, InvalidateEverythingWithMaxGeneration) {
  ResultCache cache(1 << 20);
  cache.put(1, "a", 3, value("x"));
  cache.put(2, "a", 7, value("y"));
  cache.invalidate("a", ~0ull);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCache, ClearKeepsBudgetAndCounters) {
  ResultCache cache(1 << 20);
  cache.put(1, "a", 0, value("x"));
  cache.clear();
  EXPECT_EQ(cache.get(1), nullptr);
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.budget, 1u << 20);
  cache.put(1, "a", 0, value("again"));
  EXPECT_NE(cache.get(1), nullptr);
}

TEST(ServeCache, TwoGetsOfOneKeyReturnTheStoredBuffer) {
  ResultCache cache(1 << 20);
  const Value stored = value(kA);
  cache.put(1, "c", 0, stored);
  const Value first = cache.get(1);
  const Value second = cache.get(1);
  EXPECT_EQ(first, stored);
  EXPECT_EQ(second, stored);
  EXPECT_EQ(first->data(), second->data());  // one buffer, not two copies
}

TEST(ServeCache, AReferenceOutlivesInvalidationAndEviction) {
  ResultCache cache(2 * (kA.size() + kOverhead));
  cache.put(1, "a", 0, value(kA));
  cache.put(2, "b", 0, value(kB));
  const Value invalidated = cache.get(1);
  const Value evicted = cache.get(2);
  cache.invalidate("a", 1);
  cache.put(3, "c", 0, value(kC));
  cache.put(4, "c", 0, value(kC));  // evicts 2
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_EQ(*invalidated, kA);
  EXPECT_EQ(*evicted, kB);
}

TEST(ServeCache, BytesAreTheStoredSizesPlusOverhead) {
  ResultCache cache(1 << 20);
  const size_t sizes[] = {17, 100, 4096, 70000};
  size_t want = 0;
  for (size_t i = 0; i < std::size(sizes); ++i) {
    const Value v = value(std::string(sizes[i], 'x'));
    ASSERT_EQ(v->capacity(), v->size());
    cache.put(i, "c", 0, v);
    want += sizes[i] + kOverhead;
    EXPECT_EQ(cache.stats().bytes, want);
  }
  // What the budget sees is what the heap holds: a value with spare
  // capacity is charged for it.
  std::string roomy(100, 'y');
  roomy.reserve(1000);
  const size_t held = roomy.capacity();
  cache.put(99, "c", 0, value(std::move(roomy)));
  EXPECT_EQ(cache.stats().bytes, want + held + kOverhead);
  cache.invalidate("c", ~0ull);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ServeCache, ConcurrentGetPutAndInvalidate) {
  // Readers keep what they got across writers' puts, invalidations and
  // evictions; the budget holds throughout.
  constexpr size_t kBudget = 16 * (256 + kOverhead);
  ResultCache cache(kBudget);
  std::atomic<bool> bad{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &bad, t] {
      for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>((i * 7 + t) % 64);
        const std::string circuit = "c" + std::to_string(key % 4);
        switch ((i + t) % 4) {
          case 0:
          case 1: {
            const Value v = cache.get(key);
            if (v && (v->size() != 256 || (*v)[0] != static_cast<char>('A' + key % 26))) {
              bad = true;
            }
            break;
          }
          case 2:
            cache.put(key, circuit, static_cast<std::uint64_t>(i),
                      value(std::string(256, static_cast<char>('A' + key % 26))));
            break;
          default:
            cache.invalidate(circuit, static_cast<std::uint64_t>(i));
        }
        if (cache.stats().bytes > kBudget) bad = true;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(bad.load());
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.bytes, s.entries * (256 + kOverhead));
}

}  // namespace
}  // namespace mintc::serve
