// Unit tests for the shared-interconnect interference model: epoch-bucketed
// demand visibility, cache-coloring disjointness, MemGuard-style bandwidth
// regulation, the charge formula, and checkpoint/restore.
#include "hw/multicore/interconnect.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::hw {
namespace {

using sim::Duration;
using sim::TimePoint;

InterconnectConfig two_core_config() {
  InterconnectConfig cfg;
  cfg.num_cores = 2;
  cfg.num_colors = 16;
  cfg.epoch = Duration::us(100);
  cfg.base_access_ns = 0;
  cfg.conflict_access_ns = 4;
  cfg.half_load_accesses = 2000;
  return cfg;
}

TEST(SharedInterconnectTest, DemandBecomesPressureInTheNextEpochOnly) {
  SharedInterconnect icx(two_core_config());
  const std::uint32_t mask = icx.full_mask();

  icx.register_demand(1, mask, 2000, TimePoint::at_us(10));
  // Same epoch: the burst sees no pressure from demand registered "now".
  EXPECT_EQ(icx.contention_stall(0, mask, 100, TimePoint::at_us(50)),
            Duration::zero());

  // Next epoch: the 2000 accesses are pressure. With P == half_load the
  // conflict term is exactly half its maximum: 4 ns * 100 * 1/2 = 200 ns.
  EXPECT_EQ(icx.contention_stall(0, mask, 100, TimePoint::at_us(150)),
            Duration::ns(200));

  // Two idle epochs later the previous epoch carried no demand.
  EXPECT_EQ(icx.contention_stall(0, mask, 100, TimePoint::at_us(450)),
            Duration::zero());
}

TEST(SharedInterconnectTest, OwnDemandIsNotPressure) {
  SharedInterconnect icx(two_core_config());
  icx.register_demand(0, icx.full_mask(), 100000, TimePoint::at_us(10));
  icx.register_demand(0, 0, 0, TimePoint::at_us(150));  // roll only
  EXPECT_EQ(icx.pressure(0, icx.full_mask()), 0u);
  EXPECT_EQ(icx.contention_stall(0, icx.full_mask(), 100, TimePoint::at_us(150)),
            Duration::zero());
  EXPECT_GT(icx.pressure(1, icx.full_mask()), 0u);
}

TEST(SharedInterconnectTest, DisjointColorMasksSeeNoPressure) {
  SharedInterconnect icx(two_core_config());
  icx.register_demand(1, 0x00FFu, 16000, TimePoint::at_us(10));
  icx.register_demand(1, 0, 0, TimePoint::at_us(150));  // roll only

  EXPECT_EQ(icx.pressure(0, 0xFF00u), 0u);      // disjoint: colored away
  EXPECT_EQ(icx.pressure(0, 0x00FFu), 16000u);  // overlapping: full demand
  EXPECT_EQ(icx.contention_stall(0, 0xFF00u, 100, TimePoint::at_us(160)),
            Duration::zero());
  EXPECT_GT(icx.contention_stall(0, 0x00FFu, 100, TimePoint::at_us(170)),
            Duration::zero());
}

TEST(SharedInterconnectTest, ZeroMaskMeansUncolored) {
  SharedInterconnect icx(two_core_config());
  icx.register_demand(1, 0, 1600, TimePoint::at_us(10));
  icx.register_demand(1, 0, 0, TimePoint::at_us(150));  // roll only
  // Mask 0 normalizes to all colors: the demand spreads over all 16 and is
  // fully visible to any overlapping mask.
  EXPECT_EQ(icx.pressure(0, icx.full_mask()), 1600u);
  EXPECT_EQ(icx.pressure(0, 0x0001u), 100u);  // one color's share
}

TEST(SharedInterconnectTest, BandwidthRegulationClampsPerWindow) {
  InterconnectConfig cfg = two_core_config();
  cfg.budgets = {CoreBandwidthBudget{0, Duration::us(100)},   // core 0 free
                 CoreBandwidthBudget{500, Duration::us(100)}};  // core 1 capped
  SharedInterconnect icx(cfg);

  // 2000 demanded, 500 granted: the hog is throttled at the regulator and
  // only the granted accesses ever become pressure.
  icx.register_demand(1, icx.full_mask(), 2000, TimePoint::at_us(10));
  EXPECT_EQ(icx.counters().accesses_registered, 500u);
  EXPECT_EQ(icx.counters().accesses_throttled, 1500u);
  icx.register_demand(1, icx.full_mask(), 100, TimePoint::at_us(20));
  EXPECT_EQ(icx.counters().accesses_throttled, 1600u);  // window exhausted

  // The replenishment window resets the budget.
  icx.register_demand(1, icx.full_mask(), 300, TimePoint::at_us(110));
  EXPECT_EQ(icx.counters().accesses_registered, 800u);

  icx.register_demand(1, icx.full_mask(), 0, TimePoint::at_us(210));  // roll
  EXPECT_EQ(icx.pressure(0, icx.full_mask()), 300u);
}

TEST(SharedInterconnectTest, ChargeIsMonotoneInPressureAndSaturating) {
  SharedInterconnect icx(two_core_config());
  Duration prev = Duration::zero();
  // Pressure doubling every epoch: the charge grows but never exceeds the
  // conflict ceiling 4 ns * accesses.
  std::uint64_t demand = 500;
  for (int e = 0; e < 12; ++e) {
    const TimePoint t = TimePoint::at_us(100 * e + 10);
    icx.register_demand(1, icx.full_mask(), demand, t);
    const Duration stall =
        icx.contention_stall(0, icx.full_mask(), 1000, t + Duration::us(100));
    EXPECT_GE(stall, prev);
    EXPECT_LE(stall, Duration::ns(4 * 1000));
    prev = stall;
    demand *= 2;
  }
  EXPECT_GT(prev, Duration::ns(3 * 1000));  // deep saturation approaches max
}

TEST(SharedInterconnectTest, RouteDelayIncludesLatencyAndChargesSender) {
  InterconnectConfig cfg = two_core_config();
  cfg.route_latency = Duration::us(1);
  cfg.route_accesses = 8;
  SharedInterconnect icx(cfg);

  EXPECT_EQ(icx.route_delay(0, 1, TimePoint::at_us(10)), Duration::us(1));
  EXPECT_EQ(icx.counters().routes, 1u);
  // The message's burst was registered on the sending core.
  icx.register_demand(0, 0, 0, TimePoint::at_us(150));  // roll only
  EXPECT_EQ(icx.pressure(1, icx.full_mask()), 8u);

  // Under pressure the route pays contention on top of the fixed latency.
  icx.register_demand(1, icx.full_mask(), 200000, TimePoint::at_us(160));
  EXPECT_GT(icx.route_delay(0, 1, TimePoint::at_us(250)), Duration::us(1));
}

TEST(SharedInterconnectTest, SnapshotRestoreRoundTrips) {
  InterconnectConfig cfg = two_core_config();
  cfg.budgets = {CoreBandwidthBudget{}, CoreBandwidthBudget{5000, Duration::us(100)}};
  SharedInterconnect icx(cfg);
  icx.register_demand(0, 0x000Fu, 700, TimePoint::at_us(10));
  icx.register_demand(1, 0x00F0u, 900, TimePoint::at_us(20));
  (void)icx.route_delay(1, 0, TimePoint::at_us(30));

  const auto words = sim::save_words(icx);

  // Mutate, then restore: accounting must return to the snapshot exactly.
  icx.register_demand(1, 0, 5000, TimePoint::at_us(340));
  (void)icx.contention_stall(0, 0, 100, TimePoint::at_us(350));

  sim::load_words(words, icx, "SharedInterconnect");
  EXPECT_EQ(icx.counters().routes, 1u);
  EXPECT_EQ(icx.counters().accesses_registered, 700u + 900u + 8u);
  icx.register_demand(0, 0, 0, TimePoint::at_us(110));  // roll to epoch 1
  EXPECT_EQ(icx.pressure(1, 0x000Fu), 700u);
}

TEST(SharedInterconnectTest, ConstructorValidates) {
  InterconnectConfig cfg = two_core_config();
  cfg.num_cores = 0;
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg = two_core_config();
  cfg.num_colors = 0;
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg.num_colors = 33;
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg = two_core_config();
  cfg.epoch = Duration::zero();
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg = two_core_config();
  cfg.half_load_accesses = 0;
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg = two_core_config();
  cfg.budgets = {CoreBandwidthBudget{100, Duration::zero()}};
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace rthv::hw
