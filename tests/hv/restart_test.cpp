// Partition restart (health-management action): queued events and saved
// work are discarded, the guest is notified, interpositions targeting the
// restarted partition terminate, and the partition keeps running afterwards.
#include <gtest/gtest.h>

#include <vector>

#include "hv/hypervisor.hpp"
#include "hw/platform.hpp"
#include "sim/simulator.hpp"

namespace rthv::hv {
namespace {

using sim::Duration;
using sim::TimePoint;

class RestartTest : public ::testing::Test {
 protected:
  RestartTest() : platform_(sim_, platform_config()), hv_(platform_, overheads()) {
    p0_ = hv_.add_partition("p0");
    p1_ = hv_.add_partition("p1");
    hv_.set_schedule({{p0_, Duration::us(1000)}, {p1_, Duration::us(1000)}});
    IrqSourceConfig cfg;
    cfg.name = "src";
    cfg.line = 1;
    cfg.subscriber = p0_;
    cfg.c_top = Duration::us(5);
    cfg.c_bottom = Duration::us(20);
    sid_ = hv_.add_irq_source(cfg);
    timer_ = &platform_.add_timer(1);
    hv_.set_completion_hook([this](const CompletedIrq& rec) { completions_.push_back(rec); });
  }

  static hw::PlatformConfig platform_config() {
    hw::PlatformConfig cfg;
    cfg.ctx_invalidate_instructions = 1000;
    cfg.ctx_writeback_cycles = hw::Cycles{1000};
    return cfg;
  }
  static OverheadConfig overheads() {
    OverheadConfig cfg;
    cfg.monitor_instructions = 200;
    cfg.sched_manipulation_instructions = 1000;
    cfg.tdma_tick_instructions = 200;
    return cfg;
  }

  void raise_at(TimePoint t) {
    sim_.schedule_at(t, [this] { timer_->program(Duration::zero()); });
  }

  sim::Simulator sim_;
  hw::Platform platform_;
  Hypervisor hv_;
  PartitionId p0_ = 0, p1_ = 0;
  IrqSourceId sid_ = 0;
  hw::HwTimer* timer_ = nullptr;
  std::vector<CompletedIrq> completions_;
};

TEST_F(RestartTest, DiscardsQueuedEventsAndNotifiesClient) {
  struct Client : PartitionClient {
    int restarts = 0;
    std::optional<WorkUnit> next_work(TimePoint) override { return std::nullopt; }
    void on_restart() override { ++restarts; }
  } client;
  hv_.set_partition_client(p0_, &client);
  hv_.start();
  // Queue three delayed events during p1's slot, then restart p0 at 1500.
  raise_at(TimePoint::at_us(1100));
  raise_at(TimePoint::at_us(1200));
  raise_at(TimePoint::at_us(1300));
  sim_.schedule_at(TimePoint::at_us(1500), [this] { hv_.restart_partition(p0_); });
  sim_.run_until(TimePoint::at_us(3000));
  EXPECT_EQ(completions_.size(), 0u);  // all three discarded
  EXPECT_EQ(client.restarts, 1);
  EXPECT_EQ(hv_.partition_restarts(), 1u);
  EXPECT_TRUE(hv_.partition(p0_).irq_queue().empty());
}

TEST_F(RestartTest, EventsAfterRestartAreProcessedNormally) {
  hv_.start();
  raise_at(TimePoint::at_us(1100));
  sim_.schedule_at(TimePoint::at_us(1500), [this] { hv_.restart_partition(p0_); });
  raise_at(TimePoint::at_us(1700));  // after the restart
  sim_.run_until(TimePoint::at_us(3000));
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].seq, 1u);  // only the post-restart event survives
  EXPECT_EQ(completions_[0].handling, stats::HandlingClass::kDelayed);
}

TEST_F(RestartTest, CancelsRunningWorkOfRestartedPartition) {
  struct Client : PartitionClient {
    std::uint64_t completed = 0;
    std::optional<WorkUnit> next_work(TimePoint) override {
      WorkUnit w;
      w.remaining = Duration::us(400);
      w.on_complete = [this] { ++completed; };
      return w;
    }
  } client;
  hv_.set_partition_client(p0_, &client);
  hv_.start();
  // Restart mid-work-unit: the unit [0,400) is cancelled at 200; the next
  // unit starts right away and completes at 600.
  sim_.schedule_at(TimePoint::at_us(200), [this] { hv_.restart_partition(p0_); });
  sim_.run_until(TimePoint::at_us(650));
  EXPECT_EQ(client.completed, 1u);  // the cancelled unit never completed
}

TEST_F(RestartTest, TerminatesInterpositionTargetingRestartedPartition) {
  hv_.set_monitor(sid_, std::make_unique<mon::AlwaysAdmitMonitor>());
  hv_.set_top_handler_mode(TopHandlerMode::kInterposing);
  hv_.start();
  raise_at(TimePoint::at_us(1100));  // interposes into p0 at ~1121
  sim_.schedule_at(TimePoint::at_us(1130), [this] { hv_.restart_partition(p0_); });
  sim_.run_until(TimePoint::at_us(3000));
  // The interposed bottom handler was discarded mid-flight.
  EXPECT_EQ(completions_.size(), 0u);
  EXPECT_FALSE(hv_.interpose_active());
  // The interrupted partition p1 got its context back.
  sim_.run_until(TimePoint::at_us(3000));
  EXPECT_EQ(hv_.partition_restarts(), 1u);
}

TEST_F(RestartTest, RestartDuringHvContextIsDeferredNotLost) {
  // Trigger the restart from a health callback, which fires inside the
  // hypervisor's IRQ context (queue overflow path).
  Hypervisor hv2(platform_, overheads());
  const auto a = hv2.add_partition("a", /*irq_queue_capacity=*/1);
  const auto b = hv2.add_partition("b");
  hv2.set_schedule({{a, Duration::us(1000)}, {b, Duration::us(1000)}});
  IrqSourceConfig cfg;
  cfg.name = "s";
  cfg.line = 2;
  cfg.subscriber = a;
  cfg.c_top = Duration::us(5);
  cfg.c_bottom = Duration::us(20);
  hv2.add_irq_source(cfg);
  auto& t2 = platform_.add_timer(2);
  hv2.health().set_callback([&](const HealthEvent& e) {
    if (e.kind == HealthEventKind::kIrqQueueOverflow) {
      hv2.restart_partition(e.partition);  // ARINC653-style HM policy
    }
  });
  hv2.start();
  // Two quick foreign events: the second overflows the 1-slot queue.
  sim_.schedule_at(TimePoint::at_us(1100), [&] { t2.program(Duration::zero()); });
  sim_.schedule_at(TimePoint::at_us(1150), [&] { t2.program(Duration::zero()); });
  sim_.run_until(TimePoint::at_us(3000));
  EXPECT_EQ(hv2.partition_restarts(), 1u);
  EXPECT_TRUE(hv2.partition(a).irq_queue().empty());
}

TEST_F(RestartTest, RestartReenablesVirtualIrqs) {
  hv_.start();
  hv_.vint_set(false);  // p0 is current at t=0
  EXPECT_FALSE(hv_.partition(p0_).virtual_irq_enabled());
  hv_.restart_partition(p0_);
  EXPECT_TRUE(hv_.partition(p0_).virtual_irq_enabled());
}

}  // namespace
}  // namespace rthv::hv
