// Contracts of the campaign engine (BatchRunner, with and without a
// SystemPool) and of the batched trace-ring reservation it leans on:
//
//  - engine contract, on both entry points: results ordered by run index
//    whatever the finish order, every index run exactly once, empty and
//    one-run campaigns, lowest-index rethrow, inline single worker, idle
//    workers stealing from a blocked one;
//  - warm-start soundness: a pooled system recycled by restore(pristine)
//    (which drops the run's trace drivers) is bit-identical to a cold-constructed system for
//    the same workload, across many seeds, across mid-campaign slot
//    recycling and under a fault plan with the drift transform; per-run
//    settings (tracing, kept completions) never leak into the next run;
//  - jobs-identity: campaign results are bit-identical for any jobs/chunk
//    combination and equal to per-run construction;
//  - plan_shards covers every run index exactly once, contiguously, for
//    any chunk size up to SIZE_MAX;
//  - TraceRing::BatchEmitter settles emitted/retained/dropped accounting
//    exactly like the scalar emit path, including on wraparound.
#include "exp/batch_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "exp/seed.hpp"
#include "exp/system_pool.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/oracle.hpp"
#include "obs/exporters.hpp"
#include "obs/trace_ring.hpp"
#include "workload/generators.hpp"

namespace rthv::exp {
namespace {

constexpr std::size_t kHugeChunk = std::numeric_limits<std::size_t>::max();

core::SystemConfig monitored_config() {
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = sim::Duration::us(1444);
  return cfg;
}

// Runs one seeded workload on `system` with completion records kept and
// renders everything observable about the run -- merged metrics, latency
// summary, executed event count and every completion record -- so two
// digests match only if the simulations were bit-identical.
std::string run_digest(core::HypervisorSystem& system, std::uint64_t seed) {
  system.keep_completions(true);
  workload::ExponentialTraceGenerator gen(sim::Duration::us(700), seed,
                                          sim::Duration::us(100));
  system.attach_trace(0, gen.generate(40));
  const std::uint64_t completed = system.run(sim::Duration::s(1000));
  std::ostringstream os;
  os << completed << '|' << system.simulator().executed_events() << '|';
  system.recorder().write_summary(os);
  system.metrics_snapshot().write_json(os);
  for (const auto& c : system.completions()) {
    os << ';' << c.source << ',' << static_cast<int>(c.handling) << ','
       << c.latency().count_ns();
  }
  return os.str();
}

// --- engine contract (pool-less entry point) --------------------------------

TEST(BatchRunnerTest, HardwareJobsIsPositive) { EXPECT_GE(hardware_jobs(), 1u); }

TEST(BatchRunnerTest, ZeroJobsMeansHardwareJobs) {
  const BatchRunner runner(BatchOptions{.jobs = 0});
  EXPECT_EQ(runner.jobs(), hardware_jobs());
}

TEST(BatchRunnerTest, ZeroJobsStillRunsTheCampaign) {
  BatchRunner runner(BatchOptions{.jobs = 0});
  EXPECT_GE(runner.jobs(), 1u);
  const auto results = runner.map(5, [](std::size_t i) { return i + 1; });
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i + 1);
  EXPECT_EQ(runner.stats().runs, 5u);
}

TEST(BatchRunnerTest, EmptyAndSingletonCounts) {
  BatchRunner runner(BatchOptions{.jobs = 4, .chunk = 16});
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
  EXPECT_EQ(runner.stats().chunks, 0u);
  const auto one = runner.map(1, [](std::size_t i) { return i + 99; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 99u);
}

TEST(BatchRunnerTest, PoolLessMapRethrowsLowestIndexFailure) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = 2});
    try {
      runner.map(12, [](std::size_t i) -> int {
        if (i == 3 || i == 7) throw std::runtime_error("run " + std::to_string(i));
        return 0;
      });
      FAIL() << "expected exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "run 3") << "jobs=" << jobs;
    }
  }
}

TEST(BatchRunnerTest, ResultsOrderedByIndexRegardlessOfFinishOrder) {
  BatchRunner runner(BatchOptions{.jobs = 8, .chunk = 1});
  // Early indices sleep longest, so late indices finish first; the output
  // must still come back in index order.
  const auto results = runner.map(16, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(16 - i));
    return i * i;
  });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(BatchRunnerTest, SequentialAndParallelAgree) {
  const auto run = [](std::size_t jobs, std::size_t chunk) {
    BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = chunk});
    return runner.map(10, [](std::size_t i) { return 1000 + i * 7; });
  };
  const auto sequential = run(1, 16);
  EXPECT_EQ(run(8, 1), sequential);
  EXPECT_EQ(run(3, 4), sequential);
}

TEST(BatchRunnerTest, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kRuns = 200;
  std::vector<std::atomic<int>> calls(kRuns);
  BatchRunner runner(BatchOptions{.jobs = 4, .chunk = 3});
  const auto results = runner.map(kRuns, [&calls](std::size_t i) {
    calls[i].fetch_add(1, std::memory_order_relaxed);
    return i;
  });
  ASSERT_EQ(results.size(), kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    EXPECT_EQ(calls[i].load(), 1) << "index " << i;
    EXPECT_EQ(results[i], i);
  }
  EXPECT_EQ(runner.stats().runs, kRuns);
  EXPECT_EQ(runner.stats().chunks, ceil_div(kRuns, 3));
}

TEST(BatchRunnerTest, SingleWorkerRunsInlineInIndexOrder) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool off_caller = false;
  BatchRunner runner(BatchOptions{.jobs = 1, .chunk = 4});
  (void)runner.map(50, [&](std::size_t i) {
    off_caller = off_caller || std::this_thread::get_id() != caller;
    order.push_back(i);
    return 0;
  });
  EXPECT_FALSE(off_caller) << "jobs == 1 must run on the calling thread";
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(BatchRunnerTest, ParallelWorkersRunOffTheCallingThread) {
  const auto caller = std::this_thread::get_id();
  BatchRunner runner(BatchOptions{.jobs = 2, .chunk = 1});
  const auto on_caller = runner.map(
      2, [caller](std::size_t) { return std::this_thread::get_id() == caller; });
  ASSERT_EQ(on_caller.size(), 2u);
  EXPECT_FALSE(on_caller[0]);
  EXPECT_FALSE(on_caller[1]);
}

TEST(BatchRunnerTest, IdleWorkersStealFromABlockedOne) {
  // Two workers, chunk 1: worker 0 owns indices 0..5, worker 1 owns 6..11.
  // Index 0 blocks until index 5 -- the back of worker 0's own deque -- has
  // run, which only a thief can do while worker 0 is blocked.
  std::atomic<bool> last_owned_ran{false};
  BatchRunner runner(BatchOptions{.jobs = 2, .chunk = 1});
  const auto unblocked = runner.map(12, [&](std::size_t i) {
    if (i == 5) last_owned_ran = true;
    if (i != 0) return true;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!last_owned_ran.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return last_owned_ran.load();
  });
  ASSERT_EQ(unblocked.size(), 12u);
  EXPECT_TRUE(unblocked[0]) << "no worker stole from the blocked worker's deque";
  EXPECT_GE(runner.stats().steals, 1u);
}

TEST(BatchRunnerTest, HugeChunkRunsEveryIndex) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = kHugeChunk});
    const auto results = runner.map(1000, [](std::size_t i) { return i; });
    ASSERT_EQ(results.size(), 1000u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
    SystemPool pool(monitored_config());
    const auto pooled = runner.map(
        pool, 6, [](std::size_t i, core::HypervisorSystem&) { return i + 1; });
    ASSERT_EQ(pooled.size(), 6u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < pooled.size(); ++i) EXPECT_EQ(pooled[i], i + 1);
  }
}

// Runs one monitored system per index with a derive_seed()-derived workload
// and returns (latency summary, full trace log) rendered as text.
std::vector<std::string> run_system_sweep(std::size_t jobs) {
  BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = 1});
  return runner.map(6, [](std::size_t i) {
    core::HypervisorSystem system(monitored_config());
    system.hypervisor().trace_ring().set_enabled(true);
    workload::ExponentialTraceGenerator gen(
        sim::Duration::us(400 + 150 * static_cast<std::int64_t>(i)),
        derive_seed(42, i), sim::Duration::us(100));
    system.attach_trace(0, gen.generate(60));
    system.run(sim::Duration::s(10));
    std::ostringstream os;
    system.recorder().write_summary(os);
    os << '\n' << obs::render_text(system.hypervisor().trace_ring().snapshot());
    return os.str();
  });
}

TEST(BatchRunnerTest, SystemRunsBitIdenticalAcrossJobCounts) {
  const auto sequential = run_system_sweep(1);
  const auto parallel = run_system_sweep(8);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i], parallel[i]) << "run " << i << " diverged";
  }
  // Sanity: the runs actually did work (non-empty trace, non-trivial text).
  for (const auto& text : sequential) EXPECT_GT(text.size(), 100u);
}

// --- warm-start differential ------------------------------------------------

TEST(SystemPoolTest, WarmRecycleMatchesColdConstructionAcrossSeeds) {
  const auto cfg = monitored_config();
  SystemPool pool(cfg);
  auto lease = pool.acquire();
  // 12 seeds through ONE slot: run 0 is the fresh system, every later run a
  // warm recycle of a slot that has already simulated -- the adversarial
  // case for restore-in-place.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    core::HypervisorSystem cold(cfg);
    const std::string expected = run_digest(cold, seed);
    const std::string warm = run_digest(lease.begin_run(), seed);
    EXPECT_EQ(warm, expected) << "seed " << seed << " diverged after recycling";
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.constructed, 1u);
  EXPECT_EQ(stats.warm_recycles, 11u);
}

TEST(SystemPoolTest, ReleaseAndReacquireRecyclesTheSlot) {
  SystemPool pool(monitored_config());
  std::vector<std::string> digests;
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    auto lease = pool.acquire();  // released at scope exit, slot goes back
    digests.push_back(run_digest(lease.begin_run(), seed));
  }
  EXPECT_EQ(pool.stats().constructed, 1u);  // every acquire() reused the one slot
  core::HypervisorSystem cold(monitored_config());
  EXPECT_EQ(digests[2], run_digest(cold, 22));
}

TEST(SystemPoolTest, PerRunSettingsDoNotCarryOver) {
  SystemPool pool(monitored_config());
  auto lease = pool.acquire();
  {
    core::HypervisorSystem& system = lease.begin_run();
    system.enable_tracing();
    (void)run_digest(system, 30);  // switches keep_completions on
    ASSERT_FALSE(system.completions().empty());
    ASSERT_FALSE(system.trace().empty());
  }
  core::HypervisorSystem& system = lease.begin_run();
  EXPECT_FALSE(system.hypervisor().trace_ring().enabled());
  EXPECT_TRUE(system.trace().empty());
  EXPECT_TRUE(system.completions().empty());
  workload::ExponentialTraceGenerator gen(sim::Duration::us(700), 31,
                                          sim::Duration::us(100));
  system.attach_trace(0, gen.generate(40));
  EXPECT_EQ(system.run(sim::Duration::s(1000)), 40u);
  EXPECT_TRUE(system.completions().empty()) << "keep_completions leaked from the last run";
  EXPECT_EQ(system.hypervisor().trace_ring().emitted(), 0u) << "tracing leaked from the last run";
  EXPECT_EQ(system.trace_dropped(), 0u);
}

// One fault-plan run: tracing on, a FaultEngine armed on `system` for the
// run and destroyed with it, the trace replayed through the oracle. Returns
// metrics JSON, trace text and the oracle report, rendered.
std::string fault_digest(core::HypervisorSystem& system, const fault::FaultPlan& plan,
                         std::uint64_t seed) {
  system.enable_tracing();
  workload::ExponentialTraceGenerator gen(sim::Duration::us(1444), seed);
  system.attach_trace(0, gen.generate(64));
  fault::FaultEngine engine(system, plan, derive_seed(2014, seed));
  engine.arm();
  system.run(plan.horizon);
  const fault::InterferenceOracle oracle(fault::InterferenceOracle::params_from(system));
  const auto report = oracle.verify(system.trace());
  std::ostringstream os;
  system.metrics_snapshot().write_json(os);
  const auto meta = system.trace_meta();
  os << '|' << obs::render_text(system.trace(), &meta) << '|';
  report.write(os);
  os << '|' << engine.total_injected() << '|' << report.windows_checked << '|'
     << report.violations.size() + report.cost_violations.size();
  return os.str();
}

TEST(SystemPoolTest, FaultPlanRunsMatchPerRunConstructionAcrossRecycles) {
  const auto plan =
      fault::load_fault_plan_file(std::string(RTHV_CONFIG_DIR) + "/fault_campaign.plan");
  ASSERT_TRUE(plan.horizon.is_positive());
  bool has_drift = false;
  for (const auto& injection : plan.injections) {
    has_drift = has_drift || injection.kind == fault::FaultKind::kDrift;
  }
  ASSERT_TRUE(has_drift) << "the plan must exercise the drift deadline transform";

  const auto cfg = monitored_config();
  SystemPool pool(cfg);
  BatchRunner runner(BatchOptions{.jobs = 1, .chunk = 16});
  // Four runs on one slot: one fresh run, then three recycles of a system
  // whose previous engine installed (and on destruction removed) the drift
  // transform and a checkpoint client.
  const auto pooled = runner.map(pool, 4, [&plan](std::size_t i, core::HypervisorSystem& system) {
    return fault_digest(system, plan, 50 + i);
  });
  EXPECT_EQ(runner.stats().pool.constructed, 1u);
  EXPECT_EQ(runner.stats().pool.warm_recycles, 3u);
  ASSERT_EQ(pooled.size(), 4u);
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    core::HypervisorSystem cold(cfg);
    EXPECT_EQ(pooled[i], fault_digest(cold, plan, 50 + i)) << "run " << i;
  }
  EXPECT_NE(pooled[0], pooled[1]);  // the runs really differ
}

// A prefix-built slot: traced, one trace attached, the campaign plan's
// engine armed as the checkpoint client, started and run to t = 20 ms.
SystemPool::Prefixed forked_system(const fault::FaultPlan& plan) {
  auto system = std::make_unique<core::HypervisorSystem>(monitored_config());
  system->enable_tracing();
  workload::ExponentialTraceGenerator gen(sim::Duration::us(1444), 60);
  system->attach_trace(0, gen.generate(64));
  auto base = std::make_shared<fault::FaultEngine>(*system, plan, 61);
  base->arm();
  system->set_run_to_horizon(true);
  system->start();
  (void)system->run_continue(sim::TimePoint::at_us(20'000));
  return {std::move(system), std::move(base)};
}

// Runs a prefix-built system from its fork to the horizon and renders it.
std::string continuation_digest(core::HypervisorSystem& system, sim::Duration horizon) {
  (void)system.run_continue(sim::TimePoint::origin() + horizon);
  std::ostringstream os;
  system.metrics_snapshot().write_json(os);
  const auto meta = system.trace_meta();
  os << '|' << obs::render_text(system.trace(), &meta) << '|'
     << system.simulator().executed_events();
  return os.str();
}

TEST(SystemPoolTest, PrefixSlotsRecycleToTheirForkState) {
  // The slot snapshot holds a trace driver and a checkpoint client, so
  // restore() alone must recycle it: keep the driver, reload the engine.
  const auto plan =
      fault::load_fault_plan_file(std::string(RTHV_CONFIG_DIR) + "/fault_campaign.plan");
  const auto cold = forked_system(plan);
  const sim::TimePoint fork_time = cold.system->simulator().now();
  const std::string expected = continuation_digest(*cold.system, plan.horizon);

  SystemPool pool([&plan] { return forked_system(plan); });
  auto lease = pool.acquire();
  for (int run = 0; run < 3; ++run) {
    core::HypervisorSystem& system = lease.begin_run();
    EXPECT_EQ(system.simulator().now(), fork_time);
    EXPECT_NE(system.checkpoint_client(), nullptr) << "the slot's engine must stay alive";
    EXPECT_EQ(continuation_digest(system, plan.horizon), expected) << "run " << run;
  }
  EXPECT_EQ(pool.stats().constructed, 1u);
  EXPECT_EQ(pool.stats().warm_recycles, 2u);
}

// --- jobs-identity ----------------------------------------------------------

std::vector<std::string> run_campaign(std::size_t jobs, std::size_t chunk) {
  SystemPool pool(monitored_config());
  BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = chunk});
  return runner.map(pool, 32, [](std::size_t i, core::HypervisorSystem& system) {
    return run_digest(system, 100 + i);
  });
}

TEST(BatchRunnerTest, CampaignBitIdenticalForAnyJobsChunkAndWarmStartMode) {
  const auto reference = run_campaign(1, 16);
  ASSERT_EQ(reference.size(), 32u);
  EXPECT_EQ(run_campaign(4, 4), reference);
  EXPECT_EQ(run_campaign(16, 1), reference);
  // Warm start vs cold construction per run, on the pool-less entry point.
  BatchRunner cold(BatchOptions{.jobs = 4, .chunk = 4});
  EXPECT_EQ(cold.map(32,
                     [](std::size_t i) {
                       core::HypervisorSystem system(monitored_config());
                       return run_digest(system, 100 + i);
                     }),
            reference);
}

TEST(BatchRunnerTest, PoolStaysBoundedByWorkerCount) {
  SystemPool pool(monitored_config());
  BatchRunner runner(BatchOptions{.jobs = 4, .chunk = 2});
  const auto results =
      runner.map(pool, 40, [](std::size_t i, core::HypervisorSystem& system) {
        workload::ExponentialTraceGenerator gen(sim::Duration::us(700), 1 + i);
        system.attach_trace(0, gen.generate(5));
        return system.run(sim::Duration::s(1000));
      });
  ASSERT_EQ(results.size(), 40u);
  const auto& stats = runner.stats();
  EXPECT_EQ(stats.runs, 40u);
  EXPECT_LE(stats.pool.constructed, 4u);  // O(workers), not O(runs)
  EXPECT_EQ(stats.pool.constructed + stats.pool.warm_recycles, 40u);
  EXPECT_EQ(stats.chunks, 20u);
}

TEST(BatchRunnerTest, RethrowsLowestIndexFailure) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = 2});
    SystemPool pool(monitored_config());
    try {
      runner.map(pool, 12, [](std::size_t i, core::HypervisorSystem&) -> int {
        if (i == 3 || i == 7) throw std::runtime_error("run " + std::to_string(i));
        return 0;
      });
      FAIL() << "expected exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "run 3") << "jobs=" << jobs;
    }
  }
}

TEST(BatchRunnerTest, EmptyAndSingletonCampaigns) {
  SystemPool pool(monitored_config());
  BatchRunner runner(BatchOptions{.jobs = 4, .chunk = 16});
  EXPECT_TRUE(
      runner.map(pool, 0, [](std::size_t, core::HypervisorSystem&) { return 1; })
          .empty());
  const auto one =
      runner.map(pool, 1, [](std::size_t i, core::HypervisorSystem&) { return i + 9; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 9u);
}

// --- plan_shards ------------------------------------------------------------

void expect_exact_cover(const std::vector<std::vector<RunRange>>& shards,
                        std::size_t count) {
  std::set<std::size_t> seen;
  for (const auto& shard : shards) {
    for (const auto& range : shard) {
      EXPECT_LT(range.begin, range.end);
      for (std::size_t i = range.begin; i < range.end; ++i) {
        EXPECT_TRUE(seen.insert(i).second) << "index " << i << " dealt twice";
      }
    }
  }
  EXPECT_EQ(seen.size(), count);
  if (count > 0) {
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), count - 1);
  }
}

TEST(PlanShardsTest, CoversEveryIndexExactlyOnce) {
  expect_exact_cover(plan_shards(100, 16, 4), 100);
  expect_exact_cover(plan_shards(7, 3, 2), 7);
  expect_exact_cover(plan_shards(1, 16, 8), 1);
  expect_exact_cover(plan_shards(0, 16, 4), 0);
  expect_exact_cover(plan_shards(1000, 1, 16), 1000);
}

TEST(PlanShardsTest, HugeChunkDoesNotWrap) {
  // (count + chunk - 1) / chunk wraps to 0 chunks for chunk = SIZE_MAX.
  expect_exact_cover(plan_shards(1000, kHugeChunk, 1), 1000);
  expect_exact_cover(plan_shards(1000, kHugeChunk - 1, 3), 1000);
  const auto shards = plan_shards(1000, kHugeChunk, 2);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].size() + shards[1].size(), 1u);  // one chunk holds it all
  expect_exact_cover(shards, 1000);
}

TEST(PlanShardsTest, ShardsAreContiguousAndBalanced) {
  const auto shards = plan_shards(100, 10, 4);  // 10 chunks over 4 workers
  ASSERT_EQ(shards.size(), 4u);
  std::size_t next = 0;
  std::size_t min_chunks = 100u;
  std::size_t max_chunks = 0u;
  for (const auto& shard : shards) {
    for (const auto& range : shard) {
      EXPECT_EQ(range.begin, next);  // worker shards partition 0..count in order
      next = range.end;
    }
    min_chunks = std::min(min_chunks, shard.size());
    max_chunks = std::max(max_chunks, shard.size());
  }
  EXPECT_EQ(next, 100u);
  EXPECT_LE(max_chunks - min_chunks, 1u);
}

TEST(PlanShardsTest, MoreWorkersThanChunksLeavesEmptyShards) {
  const auto shards = plan_shards(10, 16, 8);  // one chunk, eight workers
  ASSERT_EQ(shards.size(), 8u);
  std::size_t non_empty = 0;
  for (const auto& shard : shards) non_empty += shard.empty() ? 0u : 1u;
  EXPECT_EQ(non_empty, 1u);
  expect_exact_cover(shards, 10);
}

// --- TraceRing::BatchEmitter ------------------------------------------------

obs::TraceEvent make_event(std::int64_t t) {
  obs::TraceEvent e;
  e.time_ns = t;
  e.point = obs::TracePoint::kIrqPush;
  e.category = obs::TraceCategory::kIrq;
  e.partition = 1;
  e.source = 2;
  e.arg0 = static_cast<std::uint64_t>(t);
  return e;
}

void expect_rings_equal(const obs::TraceRing& batched, const obs::TraceRing& scalar) {
  EXPECT_EQ(batched.size(), scalar.size());
  EXPECT_EQ(batched.emitted(), scalar.emitted());
  EXPECT_EQ(batched.dropped(), scalar.dropped());
  EXPECT_EQ(batched.category_count(obs::TraceCategory::kIrq),
            scalar.category_count(obs::TraceCategory::kIrq));
  const auto a = batched.snapshot();
  const auto b = scalar.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_ns, b[i].time_ns) << "event " << i;
    EXPECT_EQ(a[i].arg0, b[i].arg0) << "event " << i;
  }
}

TEST(BatchEmitterTest, MatchesScalarEmissionWithoutWraparound) {
  obs::TraceRing batched(64);
  obs::TraceRing scalar(64);
  batched.set_enabled(true);
  scalar.set_enabled(true);
  {
    obs::TraceRing::BatchEmitter burst(batched);
    for (std::int64_t t = 0; t < 20; ++t) {
      const auto e = make_event(t);
      burst.emit(e.time_ns, e.point, e.category, e.partition, e.source, e.arg0, 0);
    }
  }  // destructor commits
  for (std::int64_t t = 0; t < 20; ++t) scalar.emit(make_event(t));
  expect_rings_equal(batched, scalar);
  EXPECT_EQ(batched.dropped(), batched.emitted() - batched.size());
}

TEST(BatchEmitterTest, WraparoundAccountingMatchesScalar) {
  obs::TraceRing batched(8);
  obs::TraceRing scalar(8);
  batched.set_enabled(true);
  scalar.set_enabled(true);
  // Three bursts totalling 21 events through a capacity-8 ring: the ring
  // wraps twice and the conservation law dropped == emitted - size must
  // settle identically to 21 scalar emits.
  std::int64_t t = 0;
  for (const int burst_len : {5, 9, 7}) {
    obs::TraceRing::BatchEmitter burst(batched);
    for (int k = 0; k < burst_len; ++k, ++t) {
      const auto e = make_event(t);
      burst.emit(e.time_ns, e.point, e.category, e.partition, e.source, e.arg0, 0);
    }
    burst.commit();
  }
  for (std::int64_t s = 0; s < t; ++s) scalar.emit(make_event(s));
  expect_rings_equal(batched, scalar);
  EXPECT_EQ(batched.size(), 8u);
  EXPECT_EQ(batched.emitted(), 21u);
  EXPECT_EQ(batched.dropped(), 13u);
}

TEST(BatchEmitterTest, SingleBurstLargerThanCapacity) {
  obs::TraceRing ring(4);
  ring.set_enabled(true);
  {
    obs::TraceRing::BatchEmitter burst(ring);
    for (std::int64_t x = 0; x < 11; ++x) {
      burst.emit(x, obs::TracePoint::kIrqPush, obs::TraceCategory::kIrq);
    }
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.emitted(), 11u);
  EXPECT_EQ(ring.dropped(), 7u);
  const auto events = ring.snapshot();  // newest 4 retained, oldest first
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].time_ns, static_cast<std::int64_t>(7 + i));
  }
}

TEST(BatchEmitterTest, DisabledRingIsInert) {
  obs::TraceRing ring(8);  // never enabled: no storage allocated
  obs::TraceRing::BatchEmitter burst(ring);
  EXPECT_FALSE(burst.active());
  burst.emit(1, obs::TracePoint::kIrqPush, obs::TraceCategory::kIrq);
  burst.commit();
  EXPECT_EQ(ring.emitted(), 0u);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(BatchEmitterTest, FlushAndReopenPreservesOrderAroundScalarEmit) {
  obs::TraceRing ring(16);
  ring.set_enabled(true);
  obs::TraceRing::BatchEmitter burst(ring);
  burst.emit(1, obs::TracePoint::kIrqPush, obs::TraceCategory::kIrq);
  burst.commit();
  ring.emit(make_event(2));  // e.g. a health-monitor report mid-burst
  obs::TraceRing::BatchEmitter reopened(ring);
  reopened.emit(3, obs::TracePoint::kIrqPush, obs::TraceCategory::kIrq);
  reopened.commit();
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time_ns, 1);
  EXPECT_EQ(events[1].time_ns, 2);
  EXPECT_EQ(events[2].time_ns, 3);
}

}  // namespace
}  // namespace rthv::exp
