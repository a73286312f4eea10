// Guest virtual-interrupt masking: while a partition has its virtual IRQs
// disabled (critical section), queued bottom handlers are not dispatched in
// it and interpositions into it are denied; re-enabling drains the queue at
// the next work-unit boundary.
#include <gtest/gtest.h>

#include <vector>

#include "hv/hypervisor.hpp"
#include "hw/platform.hpp"
#include "sim/simulator.hpp"

namespace rthv::hv {
namespace {

using sim::Duration;
using sim::TimePoint;

class VintTest : public ::testing::Test {
 protected:
  VintTest() : platform_(sim_, platform_config()), hv_(platform_, overheads()) {
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

// A client that runs one critical section: disables virtual IRQs for its
// first work unit, then re-enables them in the unit's completion hook.
struct CriticalSectionClient : PartitionClient {
  Hypervisor* hv = nullptr;
  Duration section_length;
  bool section_issued = false;
  std::optional<WorkUnit> next_work(TimePoint) override {
    if (section_issued) return std::nullopt;
    section_issued = true;
    hv->vint_set(false);
    WorkUnit w;
    w.remaining = section_length;
    w.on_complete = [this] { hv->vint_set(true); };
    return w;
  }
};

TEST_F(VintTest, MaskingDefersDirectBottomHandler) {
  CriticalSectionClient client;
  client.hv = &hv_;
  client.section_length = Duration::us(400);
  hv_.set_partition_client(p0_, &client);
  hv_.start();
  // IRQ arrives mid-critical-section (at 100us; the section runs 0..400).
  raise_at(TimePoint::at_us(100));
  sim_.run_until(TimePoint::at_us(1000));
  ASSERT_EQ(completions_.size(), 1u);
  // Section: [0,100) + top handler [100,105) + remainder [105,405); the
  // bottom handler runs only after the completion hook re-enables vIRQs.
  EXPECT_EQ(completions_[0].bh_end, TimePoint::at_us(425));
  EXPECT_EQ(completions_[0].handling, stats::HandlingClass::kDirect);
}

TEST_F(VintTest, UnmaskedHandlerRunsImmediately) {
  hv_.start();
  raise_at(TimePoint::at_us(100));
  sim_.run_until(TimePoint::at_us(1000));
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].bh_end, TimePoint::at_us(125));
}

TEST_F(VintTest, MaskingDeniesInterposition) {
  hv_.set_monitor(sid_, std::make_unique<mon::AlwaysAdmitMonitor>());
  hv_.set_top_handler_mode(TopHandlerMode::kInterposing);
  CriticalSectionClient client;
  client.hv = &hv_;
  // The critical section is longer than p0's slot: it runs [0, 1000), is
  // preempted by the slot switch, and resumes at 2011 -- so p0 stays masked
  // throughout p1's slot, where the IRQ arrives.
  client.section_length = Duration::us(1500);
  hv_.set_partition_client(p0_, &client);
  hv_.start();
  raise_at(TimePoint::at_us(1100));
  sim_.run_until(TimePoint::at_us(3000));
  ASSERT_EQ(completions_.size(), 1u);
  // Denied interposition (subscriber masked): the event waited for p0's
  // slot, and even there it ran only after the critical section finished.
  EXPECT_EQ(completions_[0].handling, stats::HandlingClass::kDelayed);
  EXPECT_EQ(hv_.irq_stats().denied_guest_masked, 1u);
  EXPECT_EQ(hv_.irq_stats().interpose_started, 0u);
  // Section: [0,1000) + [2011,2511); BH after re-enable: 2511 + 20.
  EXPECT_EQ(completions_[0].bh_end, TimePoint::at_us(2531));
}

TEST_F(VintTest, VintStateQueryFollowsCurrentPartition) {
  hv_.start();
  EXPECT_TRUE(hv_.vint_enabled());
  hv_.vint_set(false);
  EXPECT_FALSE(hv_.vint_enabled());
  EXPECT_FALSE(hv_.partition(p0_).virtual_irq_enabled());
  EXPECT_TRUE(hv_.partition(p1_).virtual_irq_enabled());
  hv_.vint_set(true);
  EXPECT_TRUE(hv_.vint_enabled());
}

}  // namespace
}  // namespace rthv::hv
