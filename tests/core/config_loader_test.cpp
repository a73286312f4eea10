#include "core/config_loader.hpp"

#include <gtest/gtest.h>

#include "core/hypervisor_system.hpp"

#include <sstream>
#include <string>

namespace rthv::core {
namespace {

using sim::Duration;

constexpr const char* kBaselineConfig = R"(
# paper baseline
[platform]
cpu_freq_hz = 200000000
ctx_invalidate_instructions = 5000
ctx_writeback_cycles = 5000

[overheads]
monitor_instructions = 128
sched_manipulation_instructions = 877

[mode]
interposing = true

[partition]
name = partition-1
slot_us = 6000

[partition]
name = partition-2
slot_us = 6000

[partition]
name = housekeeping
slot_us = 2000
background_load = false

[source]
name = irq-under-test
subscriber = 1
c_top_us = 5
c_bottom_us = 40
monitor = delta_min
d_min_us = 1444
)";

TEST(ConfigLoaderTest, ParsesBaseline) {
  std::istringstream is(kBaselineConfig);
  const auto cfg = load_config(is);
  EXPECT_EQ(cfg.platform.cpu_freq_hz, 200'000'000u);
  EXPECT_EQ(cfg.overheads.monitor_instructions, 128u);
  EXPECT_EQ(cfg.mode, hv::TopHandlerMode::kInterposing);
  ASSERT_EQ(cfg.partitions.size(), 3u);
  EXPECT_EQ(cfg.partitions[0].name, "partition-1");
  EXPECT_EQ(cfg.partitions[0].slot_length, Duration::us(6000));
  EXPECT_TRUE(cfg.partitions[0].background_load);
  EXPECT_FALSE(cfg.partitions[2].background_load);
  ASSERT_EQ(cfg.sources.size(), 1u);
  EXPECT_EQ(cfg.sources[0].subscriber, 1u);
  EXPECT_EQ(cfg.sources[0].monitor, MonitorKind::kDeltaMin);
  EXPECT_EQ(cfg.sources[0].d_min, Duration::us(1444));
  EXPECT_EQ(cfg.tdma_cycle(), Duration::us(14000));
}

TEST(ConfigLoaderTest, ParsesDeltaVectorAndLearning) {
  std::istringstream is(R"(
[partition]
name = p
slot_us = 1000
[source]
name = s
subscriber = 0
c_top_us = 1
c_bottom_us = 2
monitor = learning
learning_depth = 3
learning_events = 50
delta_vector_us = 100 200 300
)");
  const auto cfg = load_config(is);
  EXPECT_EQ(cfg.sources[0].monitor, MonitorKind::kLearning);
  EXPECT_EQ(cfg.sources[0].learning_depth, 3u);
  EXPECT_EQ(cfg.sources[0].learning_events, 50u);
  ASSERT_EQ(cfg.sources[0].delta_vector.size(), 3u);
  EXPECT_EQ(cfg.sources[0].delta_vector[1], Duration::us(200));
}

TEST(ConfigLoaderTest, ParsesExplicitSchedule) {
  std::istringstream is(R"(
[partition]
name = a
slot_us = 1000
[partition]
name = b
slot_us = 1000
[slot]
partition = 0
length_us = 500
[slot]
partition = 1
length_us = 500
[slot]
partition = 0
length_us = 500
)");
  const auto cfg = load_config(is);
  ASSERT_EQ(cfg.schedule.size(), 3u);
  EXPECT_EQ(cfg.schedule[2].partition, 0u);
  EXPECT_EQ(cfg.tdma_cycle(), Duration::us(1500));
}

TEST(ConfigLoaderTest, ErrorsCarryLineNumbers) {
  std::istringstream is("[platform]\nbogus_key = 1\n");
  try {
    (void)load_config(is);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("bogus_key"), std::string::npos);
  }
}

TEST(ConfigLoaderTest, RejectsMalformedInput) {
  {
    std::istringstream is("[partition\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("[unknown]\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("key_without_section = 1\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("[partition]\nname\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("[partition]\nslot_us = abc\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("[mode]\ninterposing = maybe\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("[partition]\nname = p\n[source]\nmonitor = banana\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  // One-key mutations of the baseline: a bad cost or source key is a
  // ConfigError at that key's line (the [source] header for a missing d_min).
  const struct {
    const char* from;
    const char* to;
    std::size_t line;
  } kMutations[] = {
      {"d_min_us = 1444", "d_min_us = 0", 34},
      {"d_min_us = 1444", "d_min_us = -5", 34},
      {"d_min_us = 1444", "", 28},
      {"subscriber = 1", "subscriber = 9", 30},
      {"subscriber = 1", "subscriber = -1", 30},
      {"ctx_writeback_cycles = 5000", "ctx_writeback_cycles = -1", 6},
      {"ctx_writeback_cycles = 5000", "ctx_writeback_cycles = 9223372036854775000", 6},
      {"ctx_invalidate_instructions = 5000",
       "ctx_invalidate_instructions = 9223372036854775000", 5},
      {"monitor_instructions = 128", "monitor_instructions = -1", 9},
      {"cpu_freq_hz = 200000000", "cpu_freq_hz = 200000000\ncpi_milli = 0", 5},
      {"c_top_us = 5", "c_top_us = -5", 31},
      {"c_bottom_us = 40", "c_bottom_us = -40", 32},
      {"c_bottom_us = 40", "c_bottom_us = 9223372036854775", 32},
      {"c_bottom_us = 40", "c_bottom_us = 9300000000000000", 32},
  };
  for (const auto& m : kMutations) {
    std::string text = kBaselineConfig;
    text.replace(text.find(m.from), std::string(m.from).size(), m.to);
    std::istringstream is(text);
    try {
      (void)load_config(is);
      ADD_FAILURE() << "expected ConfigError for '" << m.to << "'";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.line(), m.line) << m.to << ": " << e.what();
    }
  }
}

TEST(ConfigLoaderTest, RejectsSemanticallyInvalid) {
  {
    std::istringstream is("[platform]\ncpu_freq_hz = 1000000\n");  // no partitions
    EXPECT_THROW((void)load_config(is), std::invalid_argument);
  }
  {
    std::istringstream is("[partition]\nslot_us = 100\n");  // unnamed
    EXPECT_THROW((void)load_config(is), std::invalid_argument);
  }
  {
    std::istringstream is("[partition]\nname = p\n");  // no slot, no schedule
    EXPECT_THROW((void)load_config(is), std::invalid_argument);
  }
}

TEST(ConfigLoaderTest, RejectsZeroCpuFrequency) {
  // Zero has no cycle length (the CPU model would divide by it).
  std::istringstream is("[platform]\ncpu_freq_hz = 0\n[partition]\nname = p\nslot_us = 100\n");
  try {
    (void)load_config(is);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("cpu_freq_hz out of range"), std::string::npos);
  }
}

TEST(ConfigLoaderTest, RejectsCpuFrequencyAboveOneTerahertz) {
  // Above 10^12 Hz a cycle would last 0 ps and every instruction be free.
  std::istringstream is(
      "[platform]\ncpu_freq_hz = 1000000000001\n[partition]\nname = p\nslot_us = 100\n");
  try {
    (void)load_config(is);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("cpu_freq_hz out of range"), std::string::npos);
  }
}

TEST(ConfigLoaderTest, RejectsNonPositiveSlotLengthAsOutOfRange) {
  for (const std::string slot : {"0", "-5"}) {
    SCOPED_TRACE("slot_us = " + slot);
    std::istringstream is("[partition]\nname = p\nslot_us = " + slot + "\n");
    try {
      (void)load_config(is);
      FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.line(), 3u);
      EXPECT_NE(std::string(e.what()).find("slot_us out of range"), std::string::npos);
    }
  }
}

TEST(ConfigLoaderTest, RoundTripPreservesConfig) {
  auto original = SystemConfig::paper_baseline();
  original.mode = hv::TopHandlerMode::kInterposing;
  original.sources[0].monitor = MonitorKind::kTokenBucket;
  original.sources[0].d_min = Duration::us(1000);
  original.sources[0].bucket_depth = 3;
  original.schedule.push_back(ScheduleSlot{0, Duration::us(7000)});
  original.schedule.push_back(ScheduleSlot{1, Duration::us(7000)});

  std::stringstream ss;
  save_config(ss, original);
  const auto back = load_config(ss);

  EXPECT_EQ(back.platform.cpu_freq_hz, original.platform.cpu_freq_hz);
  EXPECT_EQ(back.mode, original.mode);
  ASSERT_EQ(back.partitions.size(), original.partitions.size());
  for (std::size_t i = 0; i < back.partitions.size(); ++i) {
    EXPECT_EQ(back.partitions[i].name, original.partitions[i].name);
    EXPECT_EQ(back.partitions[i].slot_length, original.partitions[i].slot_length);
  }
  ASSERT_EQ(back.sources.size(), 1u);
  EXPECT_EQ(back.sources[0].monitor, MonitorKind::kTokenBucket);
  EXPECT_EQ(back.sources[0].bucket_depth, 3u);
  ASSERT_EQ(back.schedule.size(), 2u);
  EXPECT_EQ(back.schedule[1].length, Duration::us(7000));
}

TEST(ConfigLoaderTest, ExplicitScheduleWithoutSlotLengthsRoundTrips) {
  std::istringstream is("[partition]\nname = a\n[slot]\npartition = 0\nlength_us = 500\n");
  const auto original = load_config(is);
  std::stringstream ss;
  save_config(ss, original);
  const auto reloaded = load_config(ss);
  EXPECT_EQ(reloaded.partitions[0].slot_length, Duration::zero());
  EXPECT_EQ(reloaded.tdma_cycle(), Duration::us(500));
}

TEST(ConfigLoaderTest, LoadedConfigBuildsARunningSystem) {
  std::istringstream is(kBaselineConfig);
  const auto cfg = load_config(is);
  // Must be constructible and runnable.
  HypervisorSystem system(cfg);
  system.run(Duration::ms(50));
  EXPECT_GE(system.simulator().now(), sim::TimePoint::at_us(50'000));
}

TEST(ConfigLoaderTest, ShippedConfigsLoadAndRun) {
  for (const char* name : {"paper_baseline.ini", "split_slots.ini", "token_bucket.ini"}) {
    const auto cfg = load_config_file(std::string(RTHV_CONFIG_DIR) + "/" + name);
    HypervisorSystem system(cfg);
    system.run(Duration::ms(20));
    EXPECT_GE(system.simulator().now(), sim::TimePoint::at_us(20'000)) << name;
  }
}

TEST(ConfigLoaderTest, MissingFileThrows) {
  EXPECT_THROW((void)load_config_file("/no/such/config.ini"), std::runtime_error);
}

}  // namespace
}  // namespace rthv::core
