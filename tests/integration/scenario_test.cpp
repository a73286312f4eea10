// Scaled-down reproductions of the paper's Section 6.1 scenarios used as
// regression tests: the shape of the results (class fractions, average
// ordering, worst-case behaviour) must match Fig. 6.
#include <gtest/gtest.h>

#include "core/hypervisor_system.hpp"
#include "hv/overhead_model.hpp"
#include "workload/generators.hpp"

namespace rthv::core {
namespace {

using sim::Duration;

// The full paper baseline with 10% IRQ load.
struct ScenarioResult {
  double direct_frac;
  double interposed_frac;
  double delayed_frac;
  Duration avg;
  Duration max;
};

Duration effective_bottom(const SystemConfig& cfg) {
  return hv::OverheadModel(cfg.platform, cfg.overheads)
      .effective_bottom_cost(cfg.sources[0].c_bottom);
}

ScenarioResult run_scenario(bool monitored, bool conforming, std::size_t irqs,
                            std::uint64_t seed) {
  auto cfg = SystemConfig::paper_baseline();
  const Duration c_bh_eff = effective_bottom(cfg);
  const auto lambda = sim::Duration::ns(c_bh_eff.count_ns() * 10);  // 10% load
  if (monitored) {
    cfg.mode = hv::TopHandlerMode::kInterposing;
    cfg.sources[0].monitor = MonitorKind::kDeltaMin;
    cfg.sources[0].d_min = lambda;
  }
  HypervisorSystem system(cfg);
  workload::ExponentialTraceGenerator gen(lambda, seed,
                                          conforming ? lambda : Duration::zero());
  system.attach_trace(0, gen.generate(irqs));
  system.run(Duration::s(200));
  const auto& r = system.recorder();
  return ScenarioResult{r.fraction(stats::HandlingClass::kDirect),
                        r.fraction(stats::HandlingClass::kInterposed),
                        r.fraction(stats::HandlingClass::kDelayed), r.all().mean(),
                        r.all().max()};
}

TEST(ScenarioTest, UnmonitoredMatchesFig6aShape) {
  const auto r = run_scenario(false, false, 2000, 42);
  // ~43% of arrivals land in the subscriber's slot (6000/14000).
  EXPECT_NEAR(r.direct_frac, 0.43, 0.06);
  EXPECT_EQ(r.interposed_frac, 0.0);
  EXPECT_NEAR(r.delayed_frac, 0.57, 0.06);
  // Average ~2500us, worst case bounded by the TDMA cycle.
  EXPECT_GT(r.avg, Duration::us(1800));
  EXPECT_LT(r.avg, Duration::us(3200));
  EXPECT_GT(r.max, Duration::us(6000));
  EXPECT_LT(r.max, Duration::us(9000));
}

TEST(ScenarioTest, MonitoredImprovesAverageNotWorstCase) {
  const auto unmon = run_scenario(false, false, 2000, 42);
  const auto mon = run_scenario(true, false, 2000, 42);
  // Monitoring moves a large share of delayed IRQs to interposed handling.
  EXPECT_GT(mon.interposed_frac, 0.10);
  EXPECT_LT(mon.delayed_frac, unmon.delayed_frac);
  // Average latency improves substantially...
  EXPECT_LT(mon.avg * 2, unmon.avg * 3);   // at least ~1.5x better
  // ...but the worst case is still TDMA-bound (violations exist).
  EXPECT_GT(mon.max, Duration::us(6000));
}

TEST(ScenarioTest, ConformingMatchesFig6cShape) {
  const auto r = run_scenario(true, true, 2000, 42);
  EXPECT_NEAR(r.direct_frac, 0.43, 0.06);
  EXPECT_GT(r.interposed_frac, 0.45);
  EXPECT_LT(r.delayed_frac, 0.01);
  // Average ~150us; worst case no longer TDMA-cycle bound.
  EXPECT_LT(r.avg, Duration::us(250));
  EXPECT_LT(r.max, Duration::us(6000));
}

TEST(ScenarioTest, SixteenFoldImprovementOrder) {
  // The paper reports ~16x average improvement between Fig. 6a and Fig. 6c.
  const auto unmon = run_scenario(false, false, 2000, 7);
  const auto conf = run_scenario(true, true, 2000, 7);
  const double ratio = static_cast<double>(unmon.avg.count_ns()) /
                       static_cast<double>(conf.avg.count_ns());
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 40.0);
}

TEST(ScenarioTest, LowerLoadsKeepDirectFraction) {
  // The direct fraction is a TDMA-geometry property, independent of load.
  auto cfg = SystemConfig::paper_baseline();
  const Duration c_bh_eff = effective_bottom(cfg);
  for (const int load_pct : {1, 5}) {
    HypervisorSystem system(cfg);
    const auto lambda =
        sim::Duration::ns(c_bh_eff.count_ns() * 100 / load_pct);
    workload::ExponentialTraceGenerator gen(lambda, 99);
    system.attach_trace(0, gen.generate(500));
    system.run(Duration::s(600));
    EXPECT_NEAR(system.recorder().fraction(stats::HandlingClass::kDirect), 0.43, 0.08)
        << "load " << load_pct << "%";
  }
}

// Full-fidelity headline regression: the complete 15000-IRQ cumulative
// experiment of Section 6.1 (loads 1/5/10 %, d_min fixed at the 10 %-load
// lambda), asserting the class splits and averages EXPERIMENTS.md records.
struct CumulativeResult {
  stats::LatencyRecorder recorder;
};

CumulativeResult run_cumulative(bool monitored, bool floor) {
  auto base = SystemConfig::paper_baseline();
  const Duration c_bh_eff = effective_bottom(base);
  const auto d_min = Duration::ns(c_bh_eff.count_ns() * 10);
  if (monitored) {
    base.mode = hv::TopHandlerMode::kInterposing;
    base.sources[0].monitor = MonitorKind::kDeltaMin;
    base.sources[0].d_min = d_min;
  }
  CumulativeResult out;
  std::uint64_t seed = 2014;
  for (const int load : {1, 5, 10}) {
    HypervisorSystem system(base);
    system.keep_completions(true);
    const auto lambda = Duration::ns(c_bh_eff.count_ns() * 100 / load);
    workload::ExponentialTraceGenerator gen(lambda, seed++,
                                            floor ? d_min : Duration::zero());
    system.attach_trace(0, gen.generate(5000));
    system.run(Duration::s(1000));
    for (const auto& rec : system.completions()) {
      out.recorder.record(rec.handling, rec.latency());
    }
  }
  return out;
}

TEST(HeadlineRegressionTest, Fig6aCumulative) {
  const auto r = run_cumulative(false, false);
  EXPECT_GE(r.recorder.total(), 14990u);
  EXPECT_NEAR(r.recorder.fraction(stats::HandlingClass::kDirect), 0.433, 0.02);
  EXPECT_NEAR(r.recorder.all().mean().as_us(), 2365.0, 120.0);
  EXPECT_NEAR(r.recorder.all().max().as_us(), 8095.0, 60.0);
}

TEST(HeadlineRegressionTest, Fig6bCumulative) {
  const auto r = run_cumulative(true, false);
  EXPECT_NEAR(r.recorder.fraction(stats::HandlingClass::kDirect), 0.433, 0.02);
  EXPECT_NEAR(r.recorder.fraction(stats::HandlingClass::kInterposed), 0.356, 0.04);
  EXPECT_NEAR(r.recorder.fraction(stats::HandlingClass::kDelayed), 0.211, 0.04);
  EXPECT_NEAR(r.recorder.all().mean().as_us(), 944.0, 120.0);
  // Worst case still TDMA-bound, as the paper observes.
  EXPECT_GT(r.recorder.all().max().as_us(), 7000.0);
}

TEST(HeadlineRegressionTest, Fig6cCumulative) {
  const auto r = run_cumulative(true, true);
  EXPECT_NEAR(r.recorder.fraction(stats::HandlingClass::kInterposed), 0.571, 0.02);
  EXPECT_LE(r.recorder.fraction(stats::HandlingClass::kDelayed), 0.002);
  EXPECT_NEAR(r.recorder.all().mean().as_us(), 80.0, 15.0);
  EXPECT_LE(r.recorder.all().percentile(99), Duration::us(101));
}

TEST(HeadlineRegressionTest, DeterministicAcrossRuns) {
  // Bit-for-bit reproducibility: two identical runs produce identical
  // latency statistics.
  const auto a = run_cumulative(true, false);
  const auto b = run_cumulative(true, false);
  EXPECT_EQ(a.recorder.total(), b.recorder.total());
  EXPECT_EQ(a.recorder.all().mean(), b.recorder.all().mean());
  EXPECT_EQ(a.recorder.all().max(), b.recorder.all().max());
  EXPECT_EQ(a.recorder.count(stats::HandlingClass::kInterposed),
            b.recorder.count(stats::HandlingClass::kInterposed));
}

}  // namespace
}  // namespace rthv::core
