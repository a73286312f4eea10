// Quickstart: build the paper's evaluation system, fire 2000 exponentially
// distributed IRQs at it, and compare interrupt latencies with and without
// monitored interposed handling.
//
// Expected outcome (paper Section 6.1): without monitoring, ~40 % of IRQs
// are handled directly (within ~50 us) and the rest wait for the
// subscriber's TDMA slot (up to 8000 us); with monitoring and conforming
// arrivals, foreign-slot IRQs execute interposed within ~150 us.
#include <iostream>

#include "core/hypervisor_system.hpp"
#include "hv/overhead_model.hpp"
#include "workload/generators.hpp"

using namespace rthv;

namespace {

void run_scenario(const char* title, const core::SystemConfig& config,
                  workload::Trace trace) {
  core::HypervisorSystem system(config);
  system.attach_trace(0, std::move(trace));
  const auto completed = system.run(sim::Duration::s(120));

  std::cout << title << "\n  " << completed << " bottom handlers completed\n  ";
  system.recorder().write_summary(std::cout);
  const auto& ctx = system.hypervisor().context_switches();
  std::cout << "  context switches: " << ctx.total() << " (tdma " << ctx.tdma
            << ", interpose " << ctx.interpose_enter + ctx.interpose_return << ")\n";
  const auto& irq = system.hypervisor().irq_stats();
  std::cout << "  irq path: serviced " << irq.serviced << ", denied-by-monitor "
            << irq.denied_by_monitor << ", denied-busy " << irq.denied_engine_busy
            << ", deferred-switches " << irq.deferred_slot_switches << ", lost-raises "
            << system.platform().intc().lost_raises() << "\n\n";
}

}  // namespace

int main() {
  constexpr std::size_t kIrqs = 2000;
  constexpr std::uint64_t kSeed = 42;

  auto config = core::SystemConfig::paper_baseline();

  // Effective bottom-handler cost C'_BH on this platform (Eq. 13); the 10 %
  // IRQ-load scenario of the paper sets lambda = C'_BH / 0.10.
  const hv::OverheadModel overheads(config.platform, config.overheads);
  const sim::Duration c_bh_eff =
      overheads.effective_bottom_cost(config.sources[0].c_bottom);
  const auto lambda = sim::Duration::ns(c_bh_eff.count_ns() * 10);

  std::cout << "TDMA cycle: " << config.tdma_cycle() << ", C'_BH: " << c_bh_eff
            << ", mean interarrival: " << lambda << "\n\n";

  // Scenario 1: monitoring disabled -- foreign-slot IRQs wait for their slot.
  {
    workload::ExponentialTraceGenerator gen(lambda, kSeed);
    run_scenario("[1] monitoring disabled", config, gen.generate(kIrqs));
  }

  // Scenario 2: d_min monitor, arrivals may violate d_min = lambda.
  {
    auto monitored = config;
    monitored.mode = hv::TopHandlerMode::kInterposing;
    monitored.sources[0].monitor = core::MonitorKind::kDeltaMin;
    monitored.sources[0].d_min = lambda;
    workload::ExponentialTraceGenerator gen(lambda, kSeed);
    run_scenario("[2] monitored, violations possible", monitored, gen.generate(kIrqs));
  }

  // Scenario 3: all arrivals conform to d_min (floored distances).
  {
    auto monitored = config;
    monitored.mode = hv::TopHandlerMode::kInterposing;
    monitored.sources[0].monitor = core::MonitorKind::kDeltaMin;
    monitored.sources[0].d_min = lambda;
    workload::ExponentialTraceGenerator gen(lambda, kSeed, /*floor=*/lambda);
    run_scenario("[3] monitored, no violations", monitored, gen.generate(kIrqs));
  }
  return 0;
}
