#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace mintc::obs {
namespace {

// The tracer is process-wide: each test starts disabled with an empty
// buffer.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer& t = Tracer::instance();
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.begin_span("s"));
  t.instant("i");
  t.counter("c", 1.0);
  { const TraceSpan span("raii"); }
  EXPECT_EQ(t.num_events(), 0u);
}

TEST_F(TraceTest, SpanRecordsBalancedBeginEnd) {
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  {
    const TraceSpan outer("outer", "test");
    const TraceSpan inner("inner", "test");
  }
  const std::vector<TraceEvent> ev = t.snapshot();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].kind, EventKind::kBegin);
  EXPECT_EQ(ev[0].name, "outer");
  EXPECT_EQ(ev[1].kind, EventKind::kBegin);
  EXPECT_EQ(ev[1].name, "inner");
  // Nested spans close innermost first.
  EXPECT_EQ(ev[2].kind, EventKind::kEnd);
  EXPECT_EQ(ev[2].name, "inner");
  EXPECT_EQ(ev[3].kind, EventKind::kEnd);
  EXPECT_EQ(ev[3].name, "outer");
}

TEST_F(TraceTest, SpanStaysBalancedAcrossDisableEdge) {
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  {
    const TraceSpan span("crossing", "test");
    t.set_enabled(false);  // disabled mid-span: the end must still land
  }
  const std::vector<TraceEvent> ev = t.snapshot();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, EventKind::kBegin);
  EXPECT_EQ(ev[1].kind, EventKind::kEnd);
}

TEST_F(TraceTest, SpanStartedWhileDisabledRecordsNoEnd) {
  Tracer& t = Tracer::instance();
  {
    const TraceSpan span("unrecorded", "test");
    t.set_enabled(true);  // enabled mid-span: no begin, so no end either
  }
  EXPECT_EQ(t.num_events(), 0u);
}

TEST_F(TraceTest, TimestampsAreMonotoneInBufferOrder) {
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  for (int i = 0; i < 50; ++i) t.instant("tick", "test");
  const std::vector<TraceEvent> ev = t.snapshot();
  ASSERT_EQ(ev.size(), 50u);
  for (size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i].ts_us, ev[i - 1].ts_us) << "at index " << i;
  }
}

TEST_F(TraceTest, CounterCarriesValue) {
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.counter("residual", 0.125, "test");
  const std::vector<TraceEvent> ev = t.snapshot();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].kind, EventKind::kCounter);
  EXPECT_DOUBLE_EQ(ev[0].value, 0.125);
  EXPECT_EQ(ev[0].category, "test");
}

TEST_F(TraceTest, SnapshotSinceSlicesSuffix) {
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.instant("a", "test");
  t.instant("b", "test");
  const size_t mark = t.num_events();
  t.instant("c", "test");
  const std::vector<TraceEvent> suffix = t.snapshot(mark);
  ASSERT_EQ(suffix.size(), 1u);
  EXPECT_EQ(suffix[0].name, "c");
  // A mark past the end yields an empty slice, not a crash.
  EXPECT_TRUE(t.snapshot(1000).empty());
}

TEST_F(TraceTest, ClearEmptiesTheBuffer) {
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.instant("x", "test");
  EXPECT_EQ(t.num_events(), 1u);
  t.clear();
  EXPECT_EQ(t.num_events(), 0u);
}

TEST_F(TraceTest, EventsCarryDistinctThreadIds) {
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.instant("main", "test");
  std::thread worker([&] { t.instant("worker", "test"); });
  worker.join();
  const std::vector<TraceEvent> ev = t.snapshot();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_GE(ev[0].tid, 1);
  EXPECT_GE(ev[1].tid, 1);
  EXPECT_NE(ev[0].tid, ev[1].tid);
}

}  // namespace
}  // namespace mintc::obs
