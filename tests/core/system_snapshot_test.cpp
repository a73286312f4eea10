// Full-system checkpoint/restore round-trips (HypervisorSystem::snapshot).
//
// The contract: a snapshot at any instant captures the complete observable
// system -- simulator, platform, guests, hypervisor dispatch state, monitor
// histories, trace ring, metrics, latency recorder, and (through the
// CheckpointClient slot) an armed FaultEngine's pending injector state.
// Restoring and re-running the remaining horizon must reproduce the first
// continuation bit for bit, including mid-storm: queued fault actions and
// injector RNG streams survive the restore.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/hypervisor_system.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "obs/exporters.hpp"
#include "workload/generators.hpp"

namespace rthv::core {
namespace {

using sim::Duration;
using sim::TimePoint;

SystemConfig monitored_baseline() {
  auto cfg = SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = Duration::us(1444);
  return cfg;
}

std::string config_path(const char* plan) {
  return std::string(RTHV_CONFIG_DIR) + "/" + plan;
}

/// Everything observable about a finished run, rendered to text: the full
/// trace stream, the metrics registry, and the completion counter.
std::string digest(const HypervisorSystem& system) {
  std::ostringstream out;
  const auto meta = system.trace_meta();
  out << obs::render_text(system.trace(), &meta);
  system.metrics_snapshot().write_json(out);
  out << "\ncompleted=" << system.completed_bottom_handlers()
      << "\nnow=" << system.simulator().now().count_ns()
      << "\nexecuted=" << system.simulator().executed_events() << "\n";
  return out.str();
}

TEST(SystemSnapshotTest, ContinuationAfterRestoreIsBitIdentical) {
  HypervisorSystem system(monitored_baseline());
  system.enable_tracing();
  workload::ExponentialTraceGenerator gen(Duration::us(1444), 2014);
  system.attach_trace(0, gen.generate(64));

  system.run(Duration::ms(10));
  const auto snap = system.snapshot();
  const auto now_at_snap = system.simulator().now();

  system.run_continue(TimePoint::at_us(100'000));
  const auto first = digest(system);

  system.restore(snap);
  EXPECT_EQ(system.simulator().now(), now_at_snap);
  system.run_continue(TimePoint::at_us(100'000));
  EXPECT_EQ(digest(system), first)
      << "restored continuation diverged from the original run";
}

TEST(SystemSnapshotTest, RestoreIsRepeatable) {
  HypervisorSystem system(monitored_baseline());
  system.enable_tracing();
  workload::ExponentialTraceGenerator gen(Duration::us(1444), 7);
  system.attach_trace(0, gen.generate(32));

  system.run(Duration::ms(5));
  const auto snap = system.snapshot();

  std::string first;
  for (int round = 0; round < 3; ++round) {
    system.restore(snap);
    system.run(Duration::ms(45));
    if (round == 0) {
      first = digest(system);
    } else {
      EXPECT_EQ(digest(system), first) << "round " << round;
    }
  }
}

TEST(SystemSnapshotTest, MidStormFaultEngineRoundTrip) {
  // The committed campaign plan mixes deterministic storms with randomized
  // drift -- a snapshot taken mid-storm must carry the injectors' pending
  // timers and RNG streams, or the restored continuation loses raises.
  const auto plan = fault::load_fault_plan_file(config_path("fault_campaign.plan"));
  HypervisorSystem system(monitored_baseline());
  system.enable_tracing();
  fault::FaultEngine engine(system, plan, 42);
  engine.arm();
  ASSERT_EQ(system.checkpoint_client(), &engine);

  system.run(Duration::ms(15));  // inside the storm phase
  const auto snap = system.snapshot();
  const auto injected_at_snap = engine.total_injected();

  const auto horizon =
      plan.horizon.is_positive() ? plan.horizon : Duration::s(1);
  system.run_continue(TimePoint::origin() + horizon);
  const auto first = digest(system);
  const auto injected_first = engine.total_injected();
  ASSERT_GT(injected_first, injected_at_snap)
      << "the snapshot must sit before the plan is exhausted";

  system.restore(snap);
  EXPECT_EQ(engine.total_injected(), injected_at_snap)
      << "restore must rewind the injector counters";
  system.run_continue(TimePoint::origin() + horizon);
  EXPECT_EQ(engine.total_injected(), injected_first)
      << "restored continuation dropped queued fault actions";
  EXPECT_EQ(digest(system), first);
}

TEST(SystemSnapshotTest, RestoreDropsMutantSideEffects) {
  // The hunt work loop: snapshot with the base engine attached, arm a
  // scoped mutant engine, run, throw the mutant away, restore. Nothing the
  // mutant did -- raises, metrics registrations, trace entries -- may leak
  // into the restored state.
  const auto base_plan =
      fault::load_fault_plan_file(config_path("fault_storm.plan"));
  HypervisorSystem system(monitored_baseline());
  system.enable_tracing();
  fault::FaultEngine base(system, base_plan, 1);
  base.arm();

  system.run(Duration::ms(10));
  const auto snap = system.snapshot();
  const auto now_at_snap = system.simulator().now();
  std::ostringstream at_snap;
  system.metrics_snapshot().write_json(at_snap);

  {
    fault::InjectionSpec spec;
    spec.kind = fault::FaultKind::kFlood;
    spec.source = 0;
    spec.start = TimePoint::at_us(11'000);
    spec.count = 20;
    spec.distance = Duration::us(100);
    fault::FaultPlan mutant_plan;
    mutant_plan.injections.push_back(spec);
    fault::FaultEngine mutant(system, mutant_plan, 2);
    mutant.arm();  // base holds the checkpoint slot; the mutant rides along
    ASSERT_EQ(system.checkpoint_client(), &base);
    system.run_continue(TimePoint::at_us(40'000));
    ASSERT_GT(mutant.total_injected(), 0u);
  }

  system.restore(snap);
  std::ostringstream after_restore;
  system.metrics_snapshot().write_json(after_restore);
  EXPECT_EQ(after_restore.str(), at_snap.str())
      << "mutant metrics survived the restore";
  EXPECT_EQ(system.simulator().now(), now_at_snap);
}

TEST(SystemSnapshotTest, ClientPresenceMismatchThrows) {
  // A snapshot taken without a checkpoint client cannot be restored while
  // one is attached (its state would be silently invented), and vice versa.
  HypervisorSystem system(monitored_baseline());
  system.run(Duration::ms(1));
  const auto snap = system.snapshot();

  fault::FaultPlan plan;  // empty plan still claims the checkpoint slot
  fault::FaultEngine engine(system, plan, 1);
  engine.arm();
  ASSERT_EQ(system.checkpoint_client(), &engine);
  EXPECT_THROW(system.restore(snap), std::logic_error);
}

TEST(SystemSnapshotTest, RestoreDropsDriversAttachedAfterTheSnapshot) {
  // The pool recycle step: a pristine snapshot restored over a finished
  // traced run drops that run's driver, and the next run on the same
  // system matches a run on a freshly constructed one.
  const auto run_once = [](HypervisorSystem& system) {
    system.enable_tracing();
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 7);
    system.attach_trace(0, gen.generate(16));
    system.run(Duration::ms(100));
    return digest(system);
  };
  HypervisorSystem fresh(monitored_baseline());
  const std::string expected = run_once(fresh);

  HypervisorSystem recycled(monitored_baseline());
  const auto pristine = recycled.snapshot();
  ASSERT_EQ(pristine.drivers, 0u);
  (void)run_once(recycled);
  recycled.restore(pristine);
  EXPECT_EQ(run_once(recycled), expected);
}

TEST(SystemSnapshotTest, RestoreOntoFewerDriversThrows) {
  HypervisorSystem traced(monitored_baseline());
  workload::ExponentialTraceGenerator gen(Duration::us(1444), 7);
  traced.attach_trace(0, gen.generate(16));
  const auto snap = traced.snapshot();
  ASSERT_EQ(snap.drivers, 1u);

  HypervisorSystem bare(monitored_baseline());
  EXPECT_THROW(bare.restore(snap), std::logic_error);
}

}  // namespace
}  // namespace rthv::core
