// Regression coverage for the 32-bit edge-offset overflow: TimingView's CSR
// offsets and edge indices are EdgeIndex (int64), and the builder rejects
// circuits whose edge count cannot be represented.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <type_traits>

#include "model/timing_view.h"
#include "sta/fixpoint.h"

namespace mintc {
namespace {

// The index type itself: accessors must hand back 64-bit indices, so CSR
// arithmetic (offset sums, begin/end differences) cannot wrap even when the
// per-element fan-in totals exceed 2^31. Compile-time facts, checked here so
// a future "optimization" back to int fails loudly.
static_assert(std::is_same_v<EdgeIndex, std::int64_t>);
static_assert(std::is_same_v<decltype(std::declval<const TimingView&>().fanin_begin(0)),
                             EdgeIndex>);
static_assert(std::is_same_v<decltype(std::declval<const TimingView&>().fanin_end(0)),
                             EdgeIndex>);
static_assert(std::is_same_v<decltype(std::declval<const TimingView&>().fanin_count(0)),
                             EdgeIndex>);
static_assert(std::is_same_v<decltype(std::declval<const TimingView&>().fanout_begin(0)),
                             EdgeIndex>);
static_assert(std::is_same_v<decltype(std::declval<const TimingView&>().edge_of_path(0)),
                             EdgeIndex>);
// The warm path stops after effective_max_sweeps(l) * l updates, which
// passes INT_MAX once l >= 21,475; the update counter must hold it.
static_assert(std::is_same_v<decltype(sta::FixpointResult::updates), std::int64_t>);

TEST(IndexWidth, CapacityCheckAtTheBoundary) {
  // 2^31 - 1 edges is the last representable count (Circuit's path ids are
  // int); one past it must be rejected. The predicate is what the TimingView
  // constructor asserts, testable without materializing 2^31 edges.
  const std::int64_t kint_max = std::numeric_limits<int>::max();
  EXPECT_EQ(TimingView::kMaxEdges, kint_max);
  EXPECT_TRUE(TimingView::edge_capacity_ok(0));
  EXPECT_TRUE(TimingView::edge_capacity_ok(kint_max));
  EXPECT_FALSE(TimingView::edge_capacity_ok(kint_max + 1));
  EXPECT_FALSE(TimingView::edge_capacity_ok(std::numeric_limits<std::int64_t>::max()));
  EXPECT_FALSE(TimingView::edge_capacity_ok(-1));
}

TEST(IndexWidth, CsrOffsetsAreExactOnAModestCircuit) {
  // Sanity that the widened offsets still agree with Circuit's adjacency.
  Circuit c("csr", 2);
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    c.add_latch("l" + std::to_string(i), (i % 2) + 1, 0.3, 0.5);
  }
  // Dense-ish fan-in: every latch fed by the previous three.
  for (int i = 1; i < n; ++i) {
    for (int back = 1; back <= 3 && i - back >= 0; ++back) {
      c.add_path(i - back, i, 1.0);
    }
  }
  const TimingView v(c);
  EdgeIndex total = 0;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(v.fanin_count(i), v.fanin_end(i) - v.fanin_begin(i));
    EXPECT_EQ(v.fanin_count(i), static_cast<EdgeIndex>(c.fanin(i).size()));
    total += v.fanin_count(i);
  }
  EXPECT_EQ(total, static_cast<EdgeIndex>(c.num_paths()));
  for (int p = 0; p < c.num_paths(); ++p) {
    const EdgeIndex e = v.edge_of_path(p);
    EXPECT_EQ(v.edge_src(e), c.path(p).from);
    EXPECT_EQ(v.edge_dst(e), c.path(p).to);
  }
}

}  // namespace
}  // namespace mintc
