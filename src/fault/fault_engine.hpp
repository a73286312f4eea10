// FaultEngine: turns a FaultPlan into armed injectors on an assembled
// HypervisorSystem and owns them for the run.
//
// Determinism contract: injector i of a plan gets
// exp::derive_seed(campaign_seed, i) -- the same scheme sweeps use per run
// -- so a campaign is a pure function of (config, plan, seed). In a sweep,
// pass derive_seed(sweep_seed, run_index) as the campaign seed and every
// run stays bit-identical for any --jobs value.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"

namespace rthv::fault {

class FaultEngine final : public core::CheckpointClient {
 public:
  /// Builds one injector per plan entry. The system must outlive the
  /// engine; the plan is copied.
  FaultEngine(core::HypervisorSystem& system, const FaultPlan& plan,
              std::uint64_t seed);

  /// Disarms every injector (removing device-level hooks such as the
  /// clock-drift deadline transform) and detaches from the system's
  /// checkpoint slot if this engine holds it. Pending injection events
  /// stay on the simulator; a campaign discards them via restore().
  ~FaultEngine() override;

  FaultEngine(const FaultEngine&) = delete;
  FaultEngine& operator=(const FaultEngine&) = delete;

  /// Arms every injector (validating specs against the system config and
  /// registering the fault/injected/<kind> counters in plan order, which
  /// keeps merged snapshots deterministic) and switches the system to
  /// horizon-bounded running -- injected raises would otherwise end the run
  /// early through the attached-trace completion count. Call once, before
  /// HypervisorSystem::run().
  ///
  /// Also claims the system's checkpoint slot when it is free, so
  /// HypervisorSystem::snapshot()/restore() round-trips the injectors'
  /// state (pending timers keep firing after a mid-storm restore). Later
  /// engines on the same system (campaign mutants) arm without attaching.
  void arm();

  [[nodiscard]] std::uint64_t total_injected() const;
  [[nodiscard]] std::size_t num_injectors() const { return injectors_.size(); }
  [[nodiscard]] const FaultInjector& injector(std::size_t i) const {
    return *injectors_.at(i);
  }

  // --- core::CheckpointClient ----------------------------------------------
  void visit(sim::StateWriter& ar) override { state(ar); }
  void visit(sim::StateReader& ar) override { state(ar); }

 private:
  template <class Ar>
  void state(Ar& ar) {
    ar.expect(injectors_.size(), "FaultEngine injector count");
    for (auto& injector : injectors_) ar(*injector);
  }

  core::HypervisorSystem& system_;
  InjectionContext ctx_;  // lint: transient(bundle of references into the live system; no state of its own)
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  // lint: transient(tracks physical hook installation on the live system; restore neither installs nor removes hooks)
  bool armed_ = false;
};

/// Test-only hook behind the oracle's falsifiability requirement: replaces
/// `source_index`'s monitor with DeltaMinMonitor(d_min / divisor) while the
/// oracle keeps checking the configured d_min, so a conforming-looking run
/// genuinely violates I(dt) and the oracle must say so. Call before the
/// system starts. Throws if the source has no positive configured d_min.
void weaken_monitor_for_test(core::HypervisorSystem& system,
                             std::uint32_t source_index, std::int64_t divisor);

}  // namespace rthv::fault
