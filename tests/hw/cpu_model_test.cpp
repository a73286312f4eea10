#include "hw/cpu_model.hpp"

#include <gtest/gtest.h>

#include <type_traits>

namespace rthv::hw {
namespace {

using sim::Duration;

// Cycles and instruction counts are different quantities: neither converts
// to the other implicitly.
static_assert(!std::is_convertible_v<std::uint64_t, Cycles>);
static_assert(!std::is_convertible_v<Cycles, std::uint64_t>);
static_assert(std::is_trivially_copyable_v<Cycles>);

TEST(CpuModelTest, DefaultIsPaperPlatform) {
  CpuModel cpu;
  EXPECT_EQ(cpu.frequency_hz(), 200'000'000u);
  // 1 cycle = 5 ns at 200 MHz.
  EXPECT_EQ(cpu.cycles_to_duration(Cycles{1}), Duration::ns(5));
  EXPECT_EQ(cpu.cycles_to_duration(Cycles{200'000'000}), Duration::s(1));
}

TEST(CpuModelTest, PaperOverheadBudgetsConvert) {
  CpuModel cpu;
  // Section 6.2: C_Mon = 128 instructions -> 640 ns; C_sched = 877 -> 4385 ns;
  // context switch 5000 instr + 5000 cycles -> 25 us + 25 us = 50 us.
  EXPECT_EQ(cpu.instructions_to_duration(128), Duration::ns(640));
  EXPECT_EQ(cpu.instructions_to_duration(877), Duration::ns(4385));
  EXPECT_EQ(cpu.instructions_to_duration(5000) + cpu.cycles_to_duration(Cycles{5000}),
            Duration::us(50));
}

TEST(CpuModelTest, CpiScalesInstructionTime) {
  CpuModel cpu(200'000'000, 1500);  // 1.5 cycles per instruction
  EXPECT_EQ(cpu.instructions_to_duration(1000), cpu.cycles_to_duration(Cycles{1500}));
}

TEST(CpuModelTest, DurationToCyclesRoundTrip) {
  CpuModel cpu;
  EXPECT_EQ(cpu.duration_to_cycles(Duration::us(1)), Cycles{200});
  EXPECT_EQ(cpu.duration_to_cycles(cpu.cycles_to_duration(Cycles{12345})), Cycles{12345});
}

TEST(CpuModelTest, OtherFrequencies) {
  CpuModel ghz(1'000'000'000);
  EXPECT_EQ(ghz.cycles_to_duration(Cycles{1}), Duration::ns(1));
  CpuModel mhz100(100'000'000);
  EXPECT_EQ(mhz100.cycles_to_duration(Cycles{1}), Duration::ns(10));
}

TEST(CpuModelTest, AccountingAccumulatesPerCategory) {
  CpuModel cpu;
  cpu.retire_cycles(WorkCategory::kTopHandler, Cycles{100});
  cpu.retire_cycles(WorkCategory::kTopHandler, Cycles{50});
  cpu.retire_instructions(WorkCategory::kMonitor, 128);
  cpu.retire_duration(WorkCategory::kGuest, Duration::us(1));
  EXPECT_EQ(cpu.cycles_in(WorkCategory::kTopHandler), Cycles{150});
  EXPECT_EQ(cpu.cycles_in(WorkCategory::kMonitor), Cycles{128});
  EXPECT_EQ(cpu.cycles_in(WorkCategory::kGuest), Cycles{200});
  EXPECT_EQ(cpu.total_cycles(), Cycles{150 + 128 + 200});
}

TEST(CpuModelTest, ResetAccountingClearsAll) {
  CpuModel cpu;
  cpu.retire_cycles(WorkCategory::kIdle, Cycles{10});
  cpu.reset_accounting();
  EXPECT_EQ(cpu.total_cycles(), Cycles{});
}

TEST(CpuModelTest, CategoryNames) {
  EXPECT_EQ(to_string(WorkCategory::kMonitor), "monitor");
  EXPECT_EQ(to_string(WorkCategory::kCacheWriteback), "cache-writeback");
  EXPECT_NE(to_string(WorkCategory::kGuest), to_string(WorkCategory::kIdle));
}

}  // namespace
}  // namespace rthv::hw
