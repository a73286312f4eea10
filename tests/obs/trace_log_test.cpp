// The hypervisor's trace log is an obs::TraceRing at its default capacity
// (Hypervisor::trace_ring()), fed through RTHV_TRACE. These tests pin the
// log-level behaviours its callers rely on: off until switched on, records
// kept oldest first, O(1) per-category counts, and clear() leaving it on.
#include <gtest/gtest.h>

#include "obs/trace_ring.hpp"

namespace rthv::obs {
namespace {

TEST(TraceLogTest, DisabledByDefaultAndDropsRecords) {
  TraceRing log;
  EXPECT_FALSE(log.enabled());
  RTHV_TRACE(log, 1000, TracePoint::kIrqPush, TraceCategory::kIrq);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.emitted(), 0u);
  EXPECT_EQ(log.category_count(TraceCategory::kIrq), 0u);
}

TEST(TraceLogTest, EnabledRecordsInOrder) {
  TraceRing log;
  log.set_enabled(true);
  RTHV_TRACE(log, 1000, TracePoint::kIrqPush, TraceCategory::kIrq);
  RTHV_TRACE(log, 2000, TracePoint::kSlotSwitch, TraceCategory::kBottom);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time_ns, 1000);
  EXPECT_EQ(events[0].category, TraceCategory::kIrq);
  EXPECT_EQ(events[0].point, TracePoint::kIrqPush);
  EXPECT_EQ(events[1].time_ns, 2000);
  EXPECT_EQ(events[1].category, TraceCategory::kBottom);
  EXPECT_EQ(events[1].point, TracePoint::kSlotSwitch);
}

TEST(TraceLogTest, CountsByCategory) {
  TraceRing log;
  log.set_enabled(true);
  RTHV_TRACE(log, 0, TracePoint::kHealth, TraceCategory::kMonitor);
  RTHV_TRACE(log, 0, TracePoint::kHealth, TraceCategory::kMonitor);
  RTHV_TRACE(log, 0, TracePoint::kHealth, TraceCategory::kGuest);
  EXPECT_EQ(log.category_count(TraceCategory::kMonitor), 2u);
  EXPECT_EQ(log.category_count(TraceCategory::kGuest), 1u);
  EXPECT_EQ(log.category_count(TraceCategory::kIrq), 0u);
}

TEST(TraceLogTest, ClearEmptiesRecords) {
  TraceRing log;
  log.set_enabled(true);
  RTHV_TRACE(log, 0, TracePoint::kHealth, TraceCategory::kOther);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.enabled()) << "clear() keeps the log enabled";
}

}  // namespace
}  // namespace rthv::obs
