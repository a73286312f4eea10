#include "hv/overhead_model.hpp"

#include <gtest/gtest.h>

namespace rthv::hv {
namespace {

using sim::Duration;

TEST(OverheadModelTest, PaperDefaultsOnPaperPlatform) {
  const OverheadModel oh(hw::PlatformConfig{});  // 200 MHz, 5000 instr + 5000 cycles
  EXPECT_EQ(oh.monitor_cost(), Duration::ns(640));              // 128 instr
  EXPECT_EQ(oh.sched_manipulation_cost(), Duration::ns(4385));  // 877 instr
  EXPECT_EQ(oh.context_switch_cost(), Duration::us(50));
  EXPECT_EQ(oh.tdma_tick_cost(), Duration::ns(500));            // 100 instr
}

TEST(OverheadModelTest, EffectiveBottomCostEq13) {
  const OverheadModel oh(hw::PlatformConfig{});
  // C'_BH = C_BH + C_sched + 2*C_ctx = 40 + 4.385 + 100 us.
  EXPECT_EQ(oh.effective_bottom_cost(Duration::us(40)), Duration::ns(144'385));
}

TEST(OverheadModelTest, EffectiveTopCostEq15) {
  const OverheadModel oh(hw::PlatformConfig{});
  EXPECT_EQ(oh.effective_top_cost(Duration::us(5)), Duration::ns(5'640));
}

TEST(OverheadModelTest, CustomBudgetsAndPlatform) {
  hw::PlatformConfig platform;
  platform.cpu_freq_hz = 100'000'000;  // 10 ns per cycle
  platform.ctx_invalidate_instructions = 1000;
  platform.ctx_writeback_cycles = hw::Cycles{500};
  OverheadConfig cfg;
  cfg.monitor_instructions = 50;
  cfg.sched_manipulation_instructions = 100;
  cfg.tdma_tick_instructions = 10;
  const OverheadModel oh(platform, cfg);
  EXPECT_EQ(oh.monitor_cost(), Duration::ns(500));
  EXPECT_EQ(oh.sched_manipulation_cost(), Duration::us(1));
  EXPECT_EQ(oh.tdma_tick_cost(), Duration::ns(100));
  EXPECT_EQ(oh.context_switch_cost(), Duration::us(10) + Duration::us(5));
  EXPECT_EQ(oh.raw_context_switch_cost().invalidate_instructions, 1000u);
  EXPECT_EQ(oh.raw_context_switch_cost().writeback_cycles, hw::Cycles{500});
}

TEST(OverheadModelTest, ConfigAccessor) {
  const OverheadModel oh(hw::PlatformConfig{});
  EXPECT_EQ(oh.config().monitor_instructions, 128u);
  EXPECT_EQ(oh.config().sched_manipulation_instructions, 877u);
}

}  // namespace
}  // namespace rthv::hv
