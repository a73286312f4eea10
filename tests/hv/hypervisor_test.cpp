// Hypervisor behaviour tests: TDMA switching, the three IRQ handling paths
// of Figs. 3/4, and partition work dispatching.
//
// Test platform: 200 MHz, context switch = 1000 instr + 1000 cycles = 10 us,
// monitor = 200 instr = 1 us, sched manipulation = 1000 instr = 5 us, TDMA
// tick = 200 instr = 1 us. Two partitions with 1000 us slots. IRQ source:
// C_TH = 5 us, C_BH = 20 us.
#include "hv/hypervisor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "hw/platform.hpp"
#include "sim/simulator.hpp"

namespace rthv::hv {
namespace {

using sim::Duration;
using sim::TimePoint;

hw::PlatformConfig test_platform_config() {
  hw::PlatformConfig cfg;
  cfg.ctx_invalidate_instructions = 1000;
  cfg.ctx_writeback_cycles = hw::Cycles{1000};
  return cfg;
}

OverheadConfig test_overheads() {
  OverheadConfig cfg;
  cfg.monitor_instructions = 200;          // 1 us
  cfg.sched_manipulation_instructions = 1000;  // 5 us
  cfg.tdma_tick_instructions = 200;        // 1 us
  return cfg;
}

class HypervisorTest : public ::testing::Test {
 protected:
  HypervisorTest() : platform_(sim_, test_platform_config()), hv_(platform_, test_overheads()) {
    p0_ = hv_.add_partition("p0");
    p1_ = hv_.add_partition("p1");
    hv_.set_schedule({{p0_, Duration::us(1000)}, {p1_, Duration::us(1000)}});
    hv_.set_completion_hook([this](const CompletedIrq& rec) { completions_.push_back(rec); });
  }

  IrqSourceId add_source(PartitionId subscriber, hw::IrqLine line,
                         Duration c_top = Duration::us(5),
                         Duration c_bottom = Duration::us(20)) {
    IrqSourceConfig cfg;
    cfg.name = "src" + std::to_string(line);
    cfg.line = line;
    cfg.subscriber = subscriber;
    cfg.c_top = c_top;
    cfg.c_bottom = c_bottom;
    const auto id = hv_.add_irq_source(cfg);
    timers_.push_back(&platform_.add_timer(line));
    return id;
  }

  void raise_at(std::size_t timer_index, TimePoint t) {
    sim_.schedule_at(t, [this, timer_index] {
      timers_[timer_index]->program(Duration::zero());
    });
  }

  sim::Simulator sim_;
  hw::Platform platform_;
  Hypervisor hv_;
  PartitionId p0_ = 0, p1_ = 0;
  std::vector<hw::HwTimer*> timers_;
  std::vector<CompletedIrq> completions_;
};

// An out-of-range IRQ line must be rejected at configuration time even in
// release builds: config.line indexes the line->source table directly.
TEST_F(HypervisorTest, AddIrqSourceRejectsOutOfRangeLine) {
  IrqSourceConfig cfg;
  cfg.name = "bogus";
  cfg.line = platform_.intc().num_lines();  // one past the last valid line
  cfg.subscriber = p0_;
  cfg.c_top = Duration::us(5);
  cfg.c_bottom = Duration::us(20);
  EXPECT_THROW(hv_.add_irq_source(cfg), std::out_of_range);
}

TEST_F(HypervisorTest, StartEntersFirstSlot) {
  hv_.start();
  EXPECT_EQ(hv_.current_partition(), p0_);
  EXPECT_EQ(hv_.slot_owner(), p0_);
  EXPECT_FALSE(hv_.in_hv_context());
}

TEST_F(HypervisorTest, TdmaSwitchesOnTheGrid) {
  hv_.start();
  sim_.run_until(TimePoint::at_us(999));
  EXPECT_EQ(hv_.current_partition(), p0_);
  // Boundary at 1000us; tick (1us) + context switch (10us) complete at 1011.
  sim_.run_until(TimePoint::at_us(1012));
  EXPECT_EQ(hv_.current_partition(), p1_);
  EXPECT_EQ(hv_.slot_owner(), p1_);
  sim_.run_until(TimePoint::at_us(2012));
  EXPECT_EQ(hv_.current_partition(), p0_);
  EXPECT_EQ(hv_.context_switches().tdma, 2u);
}

TEST_F(HypervisorTest, ManyCyclesKeepGridAlignment) {
  hv_.start();
  sim_.run_until(TimePoint::at_us(20 * 1000 + 500));
  // At t = 20500 we are inside slot 21 (owner alternates, slot 20 -> p0).
  EXPECT_EQ(hv_.current_partition(), p0_);
  EXPECT_EQ(hv_.context_switches().tdma, 20u);
  EXPECT_EQ(hv_.scheduler().cycles_completed(), 10u);
}

TEST_F(HypervisorTest, DirectIrqHandledImmediately) {
  add_source(p0_, 1);
  hv_.start();
  raise_at(0, TimePoint::at_us(100));
  sim_.run_until(TimePoint::at_us(500));
  ASSERT_EQ(completions_.size(), 1u);
  const auto& rec = completions_[0];
  EXPECT_EQ(rec.handling, stats::HandlingClass::kDirect);
  // Latency = C_TH + C_BH (no monitor on the original path).
  EXPECT_EQ(rec.latency(), Duration::us(25));
  EXPECT_EQ(rec.th_start, TimePoint::at_us(100));
  EXPECT_EQ(rec.bh_end, TimePoint::at_us(125));
  EXPECT_EQ(hv_.irq_stats().direct, 1u);
}

TEST_F(HypervisorTest, DelayedIrqWaitsForSubscriberSlot) {
  add_source(p0_, 1);
  hv_.start();
  raise_at(0, TimePoint::at_us(1100));  // p1's slot
  sim_.run_until(TimePoint::at_us(2500));
  ASSERT_EQ(completions_.size(), 1u);
  const auto& rec = completions_[0];
  EXPECT_EQ(rec.handling, stats::HandlingClass::kDelayed);
  // Slot start 2000 + tick 1 + ctx 10 + BH 20 = completion at 2031.
  EXPECT_EQ(rec.bh_end, TimePoint::at_us(2031));
  EXPECT_EQ(rec.latency(), Duration::us(931));
}

TEST_F(HypervisorTest, OriginalModeNeverInterposesEvenWithMonitor) {
  const auto sid = add_source(p0_, 1);
  hv_.set_monitor(sid, std::make_unique<mon::AlwaysAdmitMonitor>());
  hv_.set_top_handler_mode(TopHandlerMode::kOriginal);
  hv_.start();
  raise_at(0, TimePoint::at_us(1100));
  sim_.run_until(TimePoint::at_us(2500));
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].handling, stats::HandlingClass::kDelayed);
  EXPECT_EQ(hv_.irq_stats().interpose_started, 0u);
  EXPECT_EQ(hv_.irq_stats().monitor_checked, 0u);
}

TEST_F(HypervisorTest, InterposedIrqRunsInForeignSlot) {
  const auto sid = add_source(p0_, 1);
  hv_.set_monitor(sid, std::make_unique<mon::AlwaysAdmitMonitor>());
  hv_.set_top_handler_mode(TopHandlerMode::kInterposing);
  hv_.start();
  raise_at(0, TimePoint::at_us(1100));  // p1's slot
  sim_.run_until(TimePoint::at_us(1500));
  ASSERT_EQ(completions_.size(), 1u);
  const auto& rec = completions_[0];
  EXPECT_EQ(rec.handling, stats::HandlingClass::kInterposed);
  // Latency = C_TH(5) + C_Mon(1) + C_sched(5) + C_ctx(10) + C_BH(20) = 41 us.
  EXPECT_EQ(rec.latency(), Duration::us(41));
  EXPECT_EQ(rec.bh_end, TimePoint::at_us(1141));
  EXPECT_EQ(hv_.irq_stats().interpose_started, 1u);
  EXPECT_EQ(hv_.context_switches().interpose_enter, 1u);
  EXPECT_EQ(hv_.context_switches().interpose_return, 1u);
}

TEST_F(HypervisorTest, InterposeReturnsToInterruptedPartition) {
  const auto sid = add_source(p0_, 1);
  hv_.set_monitor(sid, std::make_unique<mon::AlwaysAdmitMonitor>());
  hv_.set_top_handler_mode(TopHandlerMode::kInterposing);
  hv_.start();
  raise_at(0, TimePoint::at_us(1100));
  // BH ends 1141, switch-back ends 1151.
  sim_.run_until(TimePoint::at_us(1152));
  EXPECT_EQ(hv_.current_partition(), p1_);
  EXPECT_FALSE(hv_.interpose_active());
}

TEST_F(HypervisorTest, MonitorDenialFallsBackToDelayed) {
  const auto sid = add_source(p0_, 1);
  // d_min so large that the second activation is denied.
  hv_.set_monitor(sid, std::make_unique<mon::DeltaMinMonitor>(Duration::us(100000)));
  hv_.set_top_handler_mode(TopHandlerMode::kInterposing);
  hv_.start();
  raise_at(0, TimePoint::at_us(1100));  // first: admitted, interposed
  raise_at(0, TimePoint::at_us(1300));  // second: denied, delayed
  sim_.run_until(TimePoint::at_us(2500));
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].handling, stats::HandlingClass::kInterposed);
  EXPECT_EQ(completions_[1].handling, stats::HandlingClass::kDelayed);
  EXPECT_EQ(hv_.irq_stats().denied_by_monitor, 1u);
}

TEST_F(HypervisorTest, DirectPathSkipsMonitorCost) {
  const auto sid = add_source(p0_, 1);
  hv_.set_monitor(sid, std::make_unique<mon::AlwaysAdmitMonitor>());
  hv_.set_top_handler_mode(TopHandlerMode::kInterposing);
  hv_.start();
  raise_at(0, TimePoint::at_us(100));  // own slot
  sim_.run_until(TimePoint::at_us(500));
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].handling, stats::HandlingClass::kDirect);
  // No C_Mon on the direct path: latency stays C_TH + C_BH.
  EXPECT_EQ(completions_[0].latency(), Duration::us(25));
  EXPECT_EQ(hv_.irq_stats().monitor_checked, 0u);
  // But the monitor still observed the activation (Algorithm 1 records all).
  EXPECT_EQ(hv_.monitor(sid)->observed(), 1u);
}

TEST_F(HypervisorTest, FifoOrderAcrossManyDelayedEvents) {
  add_source(p0_, 1);
  hv_.start();
  for (int i = 0; i < 5; ++i) {
    raise_at(0, TimePoint::at_us(1100 + i * 50));
  }
  sim_.run_until(TimePoint::at_us(3000));
  ASSERT_EQ(completions_.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(completions_[i].seq, i);
    if (i > 0) {
      EXPECT_GE(completions_[i].bh_end, completions_[i - 1].bh_end);
    }
  }
}

TEST(HypervisorQueueTest, QueueOverflowDropsEvents) {
  sim::Simulator sim;
  hw::Platform platform(sim, test_platform_config());
  Hypervisor hv(platform, test_overheads());
  const auto p0 = hv.add_partition("p0", /*irq_queue_capacity=*/2);
  const auto p1 = hv.add_partition("p1");
  hv.set_schedule({{p0, Duration::us(1000)}, {p1, Duration::us(1000)}});
  IrqSourceConfig cfg;
  cfg.name = "src";
  cfg.line = 1;
  cfg.subscriber = p0;
  cfg.c_top = Duration::us(5);
  cfg.c_bottom = Duration::us(20);
  hv.add_irq_source(cfg);
  auto& timer = platform.add_timer(1);
  std::uint64_t completed = 0;
  hv.set_completion_hook([&](const CompletedIrq&) { ++completed; });
  hv.start();
  // Four events during p1's slot; queue capacity 2 -> two dropped.
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(TimePoint::at_us(1100 + i * 50),
                    [&timer] { timer.program(Duration::zero()); });
  }
  sim.run_until(TimePoint::at_us(3000));
  EXPECT_EQ(completed, 2u);
  EXPECT_EQ(hv.partition(p0).irq_queue().drops(), 2u);
}

TEST_F(HypervisorTest, TopHandlersOfQueuedIrqsDoNotReorderSources) {
  // Two sources for the same partition; events interleave but each source's
  // events complete in its own seq order.
  add_source(p0_, 1);
  add_source(p0_, 2);
  hv_.start();
  raise_at(0, TimePoint::at_us(1100));
  raise_at(1, TimePoint::at_us(1150));
  raise_at(0, TimePoint::at_us(1200));
  sim_.run_until(TimePoint::at_us(3000));
  ASSERT_EQ(completions_.size(), 3u);
  // Global FIFO: completion order matches arrival order.
  EXPECT_EQ(completions_[0].source, 0u);
  EXPECT_EQ(completions_[1].source, 1u);
  EXPECT_EQ(completions_[2].source, 0u);
}

TEST_F(HypervisorTest, IrqDuringHvSequenceIsLatchedNotLost) {
  // Two sources raising within each other's top-handler windows.
  add_source(p0_, 1);
  add_source(p0_, 2);
  hv_.start();
  raise_at(0, TimePoint::at_us(100));
  raise_at(1, TimePoint::at_us(102));  // inside source 0's top handler
  sim_.run_until(TimePoint::at_us(500));
  EXPECT_EQ(completions_.size(), 2u);
  EXPECT_EQ(platform_.intc().lost_raises(), 0u);
}

TEST_F(HypervisorTest, GuestWorkRunsAndIsPreemptedBySlotEnd) {
  struct CountingClient : PartitionClient {
    std::uint64_t completed = 0;
    std::optional<WorkUnit> next_work(TimePoint) override {
      WorkUnit w;
      w.category = hw::WorkCategory::kGuest;
      w.remaining = Duration::us(300);
      w.on_complete = [this] { ++completed; };
      return w;
    }
  } client;
  hv_.set_partition_client(p0_, &client);
  hv_.start();
  sim_.run_until(TimePoint::at_us(1000));
  // Slot 0 is 1000us: three 300us units complete, the fourth is preempted.
  EXPECT_EQ(client.completed, 3u);
  sim_.run_until(TimePoint::at_us(2400));
  // The fourth unit ran [900, 1000), was preempted with 200us left, resumed
  // at 2011 and finished at 2211. The fifth unit is still in flight at 2400.
  EXPECT_EQ(client.completed, 4u);
  // Accounted guest time: all of slot 0 (1000us, no switch-in cost at t=0)
  // plus the resumed remainder [2011, 2211); the in-flight unit is only
  // accounted at its next completion or preemption.
  EXPECT_EQ(hv_.partition(p0_).guest_time(), Duration::us(1200));
}

TEST_F(HypervisorTest, GuestTimeAccountingMatchesSlotShare) {
  struct BusyClient : PartitionClient {
    std::optional<WorkUnit> next_work(TimePoint) override {
      WorkUnit w;
      w.remaining = Duration::us(100);
      return w;
    }
  } client;
  hv_.set_partition_client(p1_, &client);
  hv_.start();
  sim_.run_until(TimePoint::at_us(4000));
  // p1 slots: [1011, 2000) and [3011, 4000) -> 2 * 989us of guest time.
  EXPECT_EQ(hv_.partition(p1_).guest_time(), Duration::us(2 * 989));
  EXPECT_EQ(hv_.partition(p0_).guest_time(), Duration::zero());
}

}  // namespace
}  // namespace rthv::hv
