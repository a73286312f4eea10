#include "hv/sampling_port.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "hv/hypervisor.hpp"
#include "hw/platform.hpp"
#include "sim/simulator.hpp"
#include "sim/state_io.hpp"

namespace rthv::hv {
namespace {

using sim::Duration;
using sim::TimePoint;

TEST(SamplingPortBusTest, UnwrittenPortReadsEmpty) {
  SamplingPortBus bus;
  const auto port = bus.create_port("adc", Duration::ms(10));
  EXPECT_FALSE(bus.read(port, TimePoint::at_us(5)).has_value());
  EXPECT_EQ(bus.reads(port), 1u);
  EXPECT_EQ(bus.port_name(port), "adc");
}

TEST(SamplingPortBusTest, WriteOverwritesAndReadDoesNotConsume) {
  SamplingPortBus bus;
  const auto port = bus.create_port("adc", Duration::ms(10));
  bus.write(port, 1, 100, TimePoint::at_us(10));
  bus.write(port, 2, 200, TimePoint::at_us(20));
  const auto a = bus.read(port, TimePoint::at_us(30));
  const auto b = bus.read(port, TimePoint::at_us(40));
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->payload, 200u);
  EXPECT_EQ(a->writer, 2u);
  EXPECT_EQ(b->payload, 200u);  // unchanged: reads don't consume
  EXPECT_EQ(bus.writes(port), 2u);
  EXPECT_EQ(bus.reads(port), 2u);
}

TEST(SamplingPortBusTest, FreshnessFollowsRefreshPeriod) {
  SamplingPortBus bus;
  const auto port = bus.create_port("gyro", Duration::ms(5));
  bus.write(port, 0, 7, TimePoint::at_us(1000));
  EXPECT_TRUE(bus.read(port, TimePoint::at_us(6000))->fresh);   // age exactly 5ms
  EXPECT_FALSE(bus.read(port, TimePoint::at_us(6001))->fresh);  // stale
  // A new write refreshes.
  bus.write(port, 0, 8, TimePoint::at_us(7000));
  EXPECT_TRUE(bus.read(port, TimePoint::at_us(7001))->fresh);
}

TEST(SamplingPortBusTest, PortsAreIndependent) {
  SamplingPortBus bus;
  const auto a = bus.create_port("a", Duration::ms(1));
  const auto b = bus.create_port("b", Duration::ms(1));
  bus.write(a, 0, 1, TimePoint::at_us(0));
  EXPECT_TRUE(bus.read(a, TimePoint::at_us(1)).has_value());
  EXPECT_FALSE(bus.read(b, TimePoint::at_us(1)).has_value());
}

TEST(SamplingPortHypercallTest, WriterPartitionStampedThroughHypervisor) {
  sim::Simulator sim;
  hw::PlatformConfig pc;
  pc.ctx_invalidate_instructions = 1000;
  pc.ctx_writeback_cycles = 1000;
  hw::Platform platform(sim, pc);
  Hypervisor hv(platform);
  const auto p0 = hv.add_partition("writer");
  const auto p1 = hv.add_partition("reader");
  hv.set_schedule({{p0, Duration::us(1000)}, {p1, Duration::us(1000)}});
  const auto port = hv.create_sampling_port("sensor", Duration::ms(3));

  // Writer publishes once per work unit; reader samples and records
  // freshness.
  struct Writer : PartitionClient {
    Hypervisor* hv;
    PortId port;
    std::uint64_t value = 0;
    std::optional<WorkUnit> next_work(TimePoint) override {
      WorkUnit w;
      w.remaining = Duration::us(300);
      w.on_complete = [this] { hv->port_write(port, ++value); };
      return w;
    }
  } writer;
  writer.hv = &hv;
  writer.port = port;
  struct Reader : PartitionClient {
    Hypervisor* hv;
    PortId port;
    std::uint64_t fresh_reads = 0;
    std::uint64_t stale_reads = 0;
    std::uint64_t last_seen = 0;
    std::optional<WorkUnit> next_work(TimePoint) override {
      WorkUnit w;
      w.remaining = Duration::us(500);
      w.on_complete = [this] {
        if (const auto s = hv->port_read(port)) {
          (s->fresh ? fresh_reads : stale_reads)++;
          EXPECT_GE(s->payload, last_seen);  // monotone writer
          last_seen = s->payload;
          EXPECT_EQ(s->writer, 0u);
        }
      };
      return w;
    }
  } reader;
  reader.hv = &hv;
  reader.port = port;
  hv.set_partition_client(p0, &writer);
  hv.set_partition_client(p1, &reader);
  hv.start();
  sim.run_until(TimePoint::at_us(8000));

  EXPECT_GT(writer.value, 5u);
  // The writer refreshes every cycle (2ms) within the 3ms period: all fresh.
  EXPECT_GT(reader.fresh_reads, 3u);
  EXPECT_EQ(reader.stale_reads, 0u);
}

TEST(SamplingPortBusTest, RestoreOntoDifferentPortCountThrows) {
  // Ports are configuration: a snapshot restores only onto a bus with the
  // same port count, checked in every build type.
  SamplingPortBus two;
  SamplingPortBus three;
  for (int i = 0; i < 2; ++i) two.create_port("p", Duration::ms(10));
  for (int i = 0; i < 3; ++i) three.create_port("p", Duration::ms(10));
  two.write(0, 1, 100, TimePoint::at_us(10));
  const auto words = sim::save_words(two);
  EXPECT_THROW(sim::load_words(words, three, "SamplingPortBus"), std::logic_error);
  EXPECT_NO_THROW(sim::load_words(words, two, "SamplingPortBus"));
}

}  // namespace
}  // namespace rthv::hv
