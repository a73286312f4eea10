#include "hw/platform.hpp"

#include <gtest/gtest.h>

namespace rthv::hw {
namespace {

TEST(PlatformTest, DefaultConfigIsPaperPlatform) {
  sim::Simulator s;
  Platform p(s);
  EXPECT_EQ(p.cpu().frequency_hz(), 200'000'000u);
  EXPECT_EQ(p.intc().num_lines(), 32u);
  // Section 6.2: ~5000 instructions + ~5000 writeback cycles per switch.
  EXPECT_EQ(p.config().ctx_invalidate_instructions, 5000u);
  EXPECT_EQ(p.config().ctx_writeback_cycles, Cycles{5000});
}

TEST(PlatformTest, AddTimerBindsLineAndSimulator) {
  sim::Simulator s;
  Platform p(s);
  p.intc().set_cpu_irq_enabled(false);
  auto& t = p.add_timer(5);
  EXPECT_EQ(p.num_timers(), 1u);
  EXPECT_EQ(t.line(), 5u);
  t.program(sim::Duration::us(3));
  s.run();
  EXPECT_TRUE(p.intc().pending(5));
  EXPECT_EQ(&p.timer(0), &t);
}

TEST(PlatformTest, TimestampTimerSharesClock) {
  sim::Simulator s;
  Platform p(s);
  s.schedule_at(sim::TimePoint::at_us(4), [] {});
  s.run();
  EXPECT_EQ(p.timestamp_timer().now(), sim::TimePoint::at_us(4));
}

TEST(PlatformTest, CustomConfig) {
  sim::Simulator s;
  PlatformConfig cfg;
  cfg.cpu_freq_hz = 1'000'000'000;
  cfg.num_irq_lines = 8;
  cfg.ctx_writeback_cycles = Cycles{123};
  Platform p(s, cfg);
  EXPECT_EQ(p.cpu().frequency_hz(), 1'000'000'000u);
  EXPECT_EQ(p.intc().num_lines(), 8u);
  EXPECT_EQ(p.config().ctx_writeback_cycles, Cycles{123});
}

}  // namespace
}  // namespace rthv::hw
