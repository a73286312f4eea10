#include "core/system_config.hpp"

#include <gtest/gtest.h>

namespace rthv::core {
namespace {

using sim::Duration;

TEST(SystemConfigTest, PaperBaselineMatchesSection6) {
  const auto cfg = SystemConfig::paper_baseline();
  ASSERT_EQ(cfg.partitions.size(), 3u);
  EXPECT_EQ(cfg.partitions[0].slot_length, Duration::us(6000));
  EXPECT_EQ(cfg.partitions[1].slot_length, Duration::us(6000));
  EXPECT_EQ(cfg.partitions[2].slot_length, Duration::us(2000));
  EXPECT_EQ(cfg.tdma_cycle(), Duration::us(14000));
  ASSERT_EQ(cfg.sources.size(), 1u);
  EXPECT_EQ(cfg.sources[0].subscriber, 1u);
  EXPECT_EQ(cfg.sources[0].c_top, Duration::us(5));
  EXPECT_EQ(cfg.sources[0].c_bottom, Duration::us(40));
  EXPECT_EQ(cfg.sources[0].monitor, MonitorKind::kNone);
  EXPECT_EQ(cfg.mode, hv::TopHandlerMode::kOriginal);
}

TEST(SystemConfigTest, PaperPlatformDefaults) {
  const auto cfg = SystemConfig::paper_baseline();
  EXPECT_EQ(cfg.platform.cpu_freq_hz, 200'000'000u);
  EXPECT_EQ(cfg.overheads.monitor_instructions, 128u);
  EXPECT_EQ(cfg.overheads.sched_manipulation_instructions, 877u);
  EXPECT_EQ(cfg.platform.ctx_invalidate_instructions, 5000u);
  EXPECT_EQ(cfg.platform.ctx_writeback_cycles, hw::Cycles{5000});
}

TEST(SystemConfigTest, TdmaCycleSumsArbitrarySlots) {
  SystemConfig cfg;
  cfg.partitions = {{"a", Duration::us(100), false}, {"b", Duration::us(250), false}};
  EXPECT_EQ(cfg.tdma_cycle(), Duration::us(350));
}

TEST(SystemConfigTest, HousekeepingHasNoBackgroundLoad) {
  const auto cfg = SystemConfig::paper_baseline();
  EXPECT_TRUE(cfg.partitions[0].background_load);
  EXPECT_TRUE(cfg.partitions[1].background_load);
  EXPECT_FALSE(cfg.partitions[2].background_load);
}

}  // namespace
}  // namespace rthv::core
