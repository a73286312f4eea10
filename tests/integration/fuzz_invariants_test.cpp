// Randomized system-level invariant checks ("fuzzing" the hypervisor with
// random configurations and workloads). For every randomly drawn system we
// assert properties that must hold regardless of configuration:
//
//   1. Conservation: completed bottom handlers + lost raises + events still
//      queued/dropped account for every trace activation.
//   2. Per-source FIFO: completions of a source happen in sequence order.
//   3. Latencies are positive and measured from the top handler.
//   4. CPU-time accounting: the per-category retired cycles never exceed
//      elapsed time, and partition guest+BH time fits inside the elapsed
//      simulation time.
//   5. Monitored interference: consecutive *fresh* interposed completions
//      of a d_min-monitored source never violate d_min at admission level
//      (checked through monitor counters vs. interpose starts).
#include <gtest/gtest.h>

#include <vector>

#include "core/hypervisor_system.hpp"
#include "sim/random.hpp"
#include "workload/generators.hpp"

namespace rthv::core {
namespace {

using sim::Duration;

struct FuzzCase {
  std::uint64_t seed;
};

class FuzzInvariantsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzInvariantsTest, RandomSystemHoldsInvariants) {
  sim::Xoshiro256 rng(GetParam());

  // --- random configuration -------------------------------------------------
  SystemConfig cfg;
  const auto num_partitions = static_cast<std::uint32_t>(rng.uniform_int(2, 4));
  for (std::uint32_t p = 0; p < num_partitions; ++p) {
    PartitionSpec spec;
    spec.name = "p";
    spec.name += std::to_string(p);
    spec.slot_length = Duration::us(static_cast<std::int64_t>(rng.uniform_int(500, 4000)));
    spec.background_load = rng.uniform01() < 0.7;
    cfg.partitions.push_back(spec);
  }
  const auto num_sources = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
  cfg.mode = rng.uniform01() < 0.7 ? hv::TopHandlerMode::kInterposing
                                   : hv::TopHandlerMode::kOriginal;
  for (std::uint32_t s = 0; s < num_sources; ++s) {
    IrqSourceSpec src;
    src.name = "src";
    src.name += std::to_string(s);
    src.subscriber = static_cast<std::uint32_t>(rng.uniform_int(0, num_partitions - 1));
    src.c_top = Duration::us(static_cast<std::int64_t>(rng.uniform_int(1, 10)));
    src.c_bottom = Duration::us(static_cast<std::int64_t>(rng.uniform_int(5, 60)));
    const double pick = rng.uniform01();
    if (pick < 0.4) {
      src.monitor = MonitorKind::kDeltaMin;
      src.d_min = Duration::us(static_cast<std::int64_t>(rng.uniform_int(200, 3000)));
    } else if (pick < 0.55) {
      src.monitor = MonitorKind::kTokenBucket;
      src.d_min = Duration::us(static_cast<std::int64_t>(rng.uniform_int(200, 3000)));
      src.bucket_depth = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    } else if (pick < 0.62) {
      src.monitor = MonitorKind::kWindowCount;
      src.d_min = Duration::us(static_cast<std::int64_t>(rng.uniform_int(500, 3000)));
      src.window_events = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    } else if (pick < 0.7) {
      src.monitor = MonitorKind::kLearning;
      src.learning_depth = static_cast<std::size_t>(rng.uniform_int(1, 5));
      src.learning_events = rng.uniform_int(10, 50);
    }
    cfg.sources.push_back(src);
  }

  core::HypervisorSystem system(cfg);
  system.keep_completions(true);

  // --- random workloads ------------------------------------------------------
  std::uint64_t total_events = 0;
  for (std::uint32_t s = 0; s < num_sources; ++s) {
    const auto mean = Duration::us(static_cast<std::int64_t>(rng.uniform_int(300, 4000)));
    const auto count = static_cast<std::size_t>(rng.uniform_int(100, 400));
    workload::ExponentialTraceGenerator gen(mean, GetParam() * 17 + s);
    system.attach_trace(s, gen.generate(count));
    total_events += count;
  }

  system.run(Duration::s(120));
  const auto elapsed = system.simulator().now() - sim::TimePoint::origin();

  // --- invariant 1: conservation ---------------------------------------------
  std::uint64_t lost = 0;
  for (hw::IrqLine l = 1; l <= num_sources; ++l) {
    lost += system.platform().intc().lost_raises(l);
  }
  std::uint64_t still_queued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t in_progress = 0;
  for (std::uint32_t p = 0; p < num_partitions; ++p) {
    still_queued += system.hypervisor().partition(p).irq_queue().size();
    dropped += system.hypervisor().partition(p).irq_queue().drops();
    if (system.hypervisor().partition(p).bh_in_progress.has_value()) ++in_progress;
  }
  EXPECT_EQ(system.completed_bottom_handlers() + lost + still_queued + dropped +
                in_progress,
            total_events);

  // --- invariant 2 + 3: FIFO per source, positive latencies ------------------
  std::vector<std::uint64_t> next_seq(num_sources, 0);
  for (const auto& rec : system.completions()) {
    EXPECT_EQ(rec.seq, next_seq[rec.source]) << "source " << rec.source;
    ++next_seq[rec.source];
    EXPECT_GT(rec.latency(), Duration::zero());
    EXPECT_GE(rec.th_start, rec.raise_time);
    EXPECT_GT(rec.bh_end, rec.th_start);
  }

  // --- invariant 4: time accounting -------------------------------------------
  const auto& cpu = system.platform().cpu();
  const hw::Cycles elapsed_cycles = cpu.duration_to_cycles(elapsed);
  EXPECT_LE(cpu.total_cycles(), elapsed_cycles + hw::Cycles{1});
  Duration partition_time = Duration::zero();
  for (std::uint32_t p = 0; p < num_partitions; ++p) {
    partition_time += system.hypervisor().partition(p).guest_time() +
                      system.hypervisor().partition(p).bh_time();
  }
  EXPECT_LE(partition_time, elapsed);

  // --- invariant 5: monitored admission accounting ----------------------------
  const auto& irq = system.hypervisor().irq_stats();
  EXPECT_LE(irq.interpose_started,
            irq.monitor_checked - irq.denied_by_monitor - irq.denied_engine_busy -
                irq.denied_backlog + 1);
  EXPECT_EQ(system.hypervisor().context_switches().interpose_enter,
            irq.interpose_started);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzInvariantsTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace rthv::core
