// Merge semantics of RunResult and the stats-layer merge() helpers it rides
// on: folding per-run results in index order must equal one sequential run.
// Also pins derive_seed(), which makes each run's inputs a pure function of
// its index.
#include "exp/run_result.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/hypervisor_system.hpp"
#include "exp/seed.hpp"
#include "stats/histogram.hpp"
#include "stats/latency_recorder.hpp"
#include "stats/summary.hpp"
#include "workload/generators.hpp"

namespace rthv::exp {
namespace {

using sim::Duration;
using stats::HandlingClass;

TEST(DeriveSeedTest, DependsOnlyOnBaseAndIndex) {
  EXPECT_EQ(derive_seed(42, 3), derive_seed(42, 3));
  EXPECT_NE(derive_seed(42, 3), derive_seed(42, 4));
  EXPECT_NE(derive_seed(42, 3), derive_seed(43, 3));
  static_assert(derive_seed(1, 0) == derive_seed(1, 0));  // usable at compile time
}

TEST(DeriveSeedTest, NeighbouringIndicesAreWellSpread) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(derive_seed(7, i));
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions across a realistic sweep
}

TEST(SummaryMergeTest, AppendsSamplesInOrder) {
  stats::Summary a;
  a.add(Duration::us(10));
  a.add(Duration::us(30));
  stats::Summary b;
  b.add(Duration::us(20));

  a.merge(b);
  ASSERT_EQ(a.count(), 3u);
  EXPECT_EQ(a.samples()[0], Duration::us(10));
  EXPECT_EQ(a.samples()[1], Duration::us(30));
  EXPECT_EQ(a.samples()[2], Duration::us(20));
  EXPECT_EQ(a.median(), Duration::us(20));
  EXPECT_EQ(a.max(), Duration::us(30));
}

TEST(SummaryMergeTest, MergeAfterStatsQueryStaysCorrect) {
  stats::Summary a;
  a.add(Duration::us(50));
  EXPECT_EQ(a.median(), Duration::us(50));  // forces the sorted cache
  stats::Summary b;
  b.add(Duration::us(10));
  a.merge(b);
  EXPECT_EQ(a.min(), Duration::us(10));  // cache must have been invalidated
}

TEST(LatencyRecorderMergeTest, PerClassAndOverallCountsAdd) {
  stats::LatencyRecorder a;
  a.record(HandlingClass::kDirect, Duration::us(5));
  a.record(HandlingClass::kDelayed, Duration::us(500));
  stats::LatencyRecorder b;
  b.record(HandlingClass::kDirect, Duration::us(7));
  b.record(HandlingClass::kInterposed, Duration::us(50));

  a.merge(b);
  EXPECT_EQ(a.count(HandlingClass::kDirect), 2u);
  EXPECT_EQ(a.count(HandlingClass::kInterposed), 1u);
  EXPECT_EQ(a.count(HandlingClass::kDelayed), 1u);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.all().max(), Duration::us(500));
}

TEST(HistogramMergeTest, BinCountsAdd) {
  stats::Histogram a(Duration::us(0), Duration::us(100), Duration::us(10));
  a.add(Duration::us(15));
  a.add(Duration::us(200));  // overflow
  stats::Histogram b(Duration::us(0), Duration::us(100), Duration::us(10));
  b.add(Duration::us(15));
  b.add(Duration::us(25));
  b.add(Duration::us(-5));  // underflow

  a.merge(b);
  EXPECT_EQ(a.bin_count(1), 2u);
  EXPECT_EQ(a.bin_count(2), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.total(), 5u);
}

TEST(HistogramMergeTest, MismatchedBinningThrows) {
  stats::Histogram a(Duration::us(0), Duration::us(100), Duration::us(10));
  stats::Histogram coarser(Duration::us(0), Duration::us(100), Duration::us(20));
  stats::Histogram shifted(Duration::us(10), Duration::us(110), Duration::us(10));
  EXPECT_THROW(a.merge(coarser), std::invalid_argument);
  EXPECT_THROW(a.merge(shifted), std::invalid_argument);
}

RunResult run_once(std::uint64_t seed, std::size_t irqs) {
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = Duration::us(1444);
  core::HypervisorSystem system(cfg);
  system.keep_completions(true);
  workload::ExponentialTraceGenerator gen(Duration::us(1444), seed,
                                          Duration::us(1444));
  system.attach_trace(0, gen.generate(irqs));
  system.run(Duration::s(10));
  return RunResult::capture(system);
}

TEST(RunResultTest, CaptureSnapshotsARealRun) {
  const RunResult r = run_once(7, 100);
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.recorder.total(), r.completed);
  EXPECT_EQ(r.completions.size(), r.completed);
  EXPECT_GT(r.tdma_switches, 0u);
}

TEST(RunResultTest, FillHistogramCoversEveryCompletion) {
  RunResult r = run_once(7, 100);
  r.fill_histogram(Duration::us(0), Duration::us(8500), Duration::us(100));
  ASSERT_TRUE(r.histogram.has_value());
  EXPECT_EQ(r.histogram->total(), r.completions.size());
}

TEST(RunResultTest, MergeEqualsSequentialAggregation) {
  RunResult a = run_once(1, 80);
  RunResult b = run_once(2, 80);
  const std::uint64_t total = a.completed + b.completed;
  const std::size_t samples = a.completions.size() + b.completions.size();
  const std::uint64_t tdma = a.tdma_switches + b.tdma_switches;

  a.fill_histogram(Duration::us(0), Duration::us(8500), Duration::us(100));
  b.fill_histogram(Duration::us(0), Duration::us(8500), Duration::us(100));
  const std::uint64_t hist_total = a.histogram->total() + b.histogram->total();

  a.merge(std::move(b));
  EXPECT_EQ(a.completed, total);
  EXPECT_EQ(a.recorder.total(), total);
  EXPECT_EQ(a.completions.size(), samples);
  EXPECT_EQ(a.tdma_switches, tdma);
  EXPECT_EQ(a.histogram->total(), hist_total);
}

TEST(RunResultTest, MergeAdoptsHistogramFromOther) {
  RunResult a = run_once(1, 40);
  RunResult b = run_once(2, 40);
  b.fill_histogram(Duration::us(0), Duration::us(8500), Duration::us(100));
  const std::uint64_t b_total = b.histogram->total();
  ASSERT_FALSE(a.histogram.has_value());
  a.merge(std::move(b));
  ASSERT_TRUE(a.histogram.has_value());
  EXPECT_EQ(a.histogram->total(), b_total);
}

TEST(RunResultTest, WriteSummaryIsDeterministicForSameSeed) {
  const auto render = [](const RunResult& r) {
    std::ostringstream os;
    r.recorder.write_summary(os);
    return os.str();
  };
  EXPECT_EQ(render(run_once(11, 60)), render(run_once(11, 60)));
  EXPECT_NE(render(run_once(11, 60)), render(run_once(12, 60)));
}

}  // namespace
}  // namespace rthv::exp
