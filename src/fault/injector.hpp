// Fault injectors: deterministic adversarial event sources that attack the
// hypervisor through the same hardware surfaces real devices use (IRQ-line
// raises, latch clears, timer deadlines) -- never by reaching into
// hypervisor state. Everything an injector does is therefore observable,
// deniable and accountable exactly like real misbehaving hardware.
//
// Determinism: an injector owns a xoshiro256** generator seeded by the
// FaultEngine with exp::derive_seed(campaign seed, injector index), and all
// of its actions are simulator events, so a fault run is a pure function of
// (config, plan, seed) -- bit-identical for any --jobs value.
//
// This header is hot-path code by lint policy (tools/rthv_lint): no raw
// heap allocation, no wall-clock reads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/system_config.hpp"
#include "fault/fault_plan.hpp"
#include "hv/hypervisor.hpp"
#include "hw/platform.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::fault {

/// Everything an injector may touch. The context outlives the simulation
/// run (owned by the FaultEngine); injector callbacks hold references into
/// it.
struct InjectionContext {
  sim::Simulator& sim;
  hw::Platform& platform;
  hv::Hypervisor& hv;
  const core::SystemConfig& config;
  obs::MetricsRegistry& metrics;
};

class FaultInjector {
 public:
  FaultInjector(const InjectionSpec& spec, std::uint64_t seed);
  virtual ~FaultInjector() = default;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Validates the spec against the system config, registers the
  /// `fault/injected/<kind>` counter and schedules the injection events.
  /// Call once, before the simulation runs.
  void arm(InjectionContext& ctx);

  [[nodiscard]] const InjectionSpec& spec() const { return spec_; }
  [[nodiscard]] FaultKind kind() const { return spec_.kind; }

  /// Actions performed so far (raises, latch clears, perturbed deadlines).
  [[nodiscard]] std::uint64_t injected() const { return injected_; }

  /// Removes any device-level decoration the injector installed (e.g. a
  /// timer deadline transform); pending simulator events are untouched.
  /// Default: nothing to undo. Called by the engine's destructor so a
  /// discarded engine (a killed campaign mutant) cannot leave its hooks on
  /// the shared hardware.
  virtual void disarm(InjectionContext& ctx) { (void)ctx; }

  /// Checkpoint entry points of the injector's mutable state (RNG stream,
  /// action counter, derived overrides). Each derived class with state of
  /// its own overrides both with a forward to its state(), which visits the
  /// base's first. The injection events pending on the simulator are
  /// captured by the simulator snapshot; their callbacks reference this
  /// object, which a restore keeps in place.
  virtual void visit(sim::StateWriter& ar) { state(ar); }
  virtual void visit(sim::StateReader& ar) { state(ar); }

 protected:
  template <class Ar>
  void state(Ar& ar) {
    ar(rng_, injected_);
  }

  virtual void do_arm(InjectionContext& ctx) = 0;

  /// Counts one injection: bumps the kind counter and emits a kFaultInject
  /// trace event (arg0 = kind, arg1 = per-kind payload).
  void record_injection(InjectionContext& ctx, std::uint64_t arg1 = 0);

  /// Raises the spec'd source's IRQ line; returns false when the raise was
  /// lost to an already-set latch (the non-counting IRQ-flag hazard).
  bool raise_source_line(InjectionContext& ctx);

  [[nodiscard]] hw::IrqLine source_line() const { return spec_.source + 1; }

  InjectionSpec spec_;  // lint: transient(plan entry copied at construction; never mutated)
  sim::Xoshiro256 rng_;

 private:
  obs::MetricsRegistry::CounterHandle counter_;  // lint: transient(registry handle re-registered at arm; data lives in the system's metrics)
  std::uint32_t trace_partition_ = UINT32_MAX;  // obs::kNoId  // lint: transient(derived from config at arm; constant thereafter)
  std::uint32_t trace_source_ = UINT32_MAX;  // lint: transient(derived from config at arm; constant thereafter)
  std::uint64_t injected_ = 0;
};

/// Periodic back-to-back bursts on one source. With `distance` equal to the
/// monitor's d_min this is the maximal conforming pattern (every raise
/// admitted); slightly under, it exercises the deny path at the boundary.
class StormInjector final : public FaultInjector {
 public:
  using FaultInjector::FaultInjector;

 private:
  void do_arm(InjectionContext& ctx) override;
};

/// Seeded random extra raises with exponential interarrival times --
/// electrical glitches / shared-line noise.
class SpuriousInjector final : public FaultInjector {
 public:
  using FaultInjector::FaultInjector;

 private:
  void do_arm(InjectionContext& ctx) override;
  void schedule_next(InjectionContext& ctx, std::uint64_t remaining);
};

/// Periodically clears the source's pending latch, turning latched-but-not-
/// yet-serviced interrupts into silently lost ones.
class DropInjector final : public FaultInjector {
 public:
  using FaultInjector::FaultInjector;

 private:
  void do_arm(InjectionContext& ctx) override;
};

/// Installs a deadline transform on the TDMA tick timer: constant drift
/// (ppm of elapsed time) plus uniform per-deadline jitter. Slot boundaries
/// wander off the analysis grid while the monitors keep judging true raise
/// distances -- temporal independence must survive a bad oscillator.
class ClockDriftInjector final : public FaultInjector {
 public:
  using FaultInjector::FaultInjector;

  /// Uninstalls the deadline transform (a discarded engine must not keep
  /// warping the TDMA grid through a dangling callback).
  void disarm(InjectionContext& ctx) override;

  void visit(sim::StateWriter& ar) override { state(ar); }
  void visit(sim::StateReader& ar) override { state(ar); }

 private:
  /// A load converges the live hook on the restored truth: a restore may
  /// land on state where a since-destroyed mutant engine's injector had
  /// overwritten (or disarm had removed) this injector's hook, so it is
  /// re-installed when the snapshot had it active, and removed when only
  /// the pre-load state had it.
  template <class Ar>
  void state(Ar& ar) {
    const bool hooked = installed_;
    FaultInjector::state(ar);
    ar(epoch_ns_, installed_);
    if constexpr (Ar::kLoading) {
      if (armed_ctx_ != nullptr && installed_) {
        install(*armed_ctx_);
      } else if (armed_ctx_ != nullptr && hooked) {
        clear_hook(*armed_ctx_);
      }
    }
  }

  void do_arm(InjectionContext& ctx) override;
  void install(InjectionContext& ctx);
  void clear_hook(InjectionContext& ctx);
  [[nodiscard]] sim::TimePoint transform(InjectionContext& ctx, sim::TimePoint deadline);
  [[nodiscard]] hw::HwTimer* tick_timer(InjectionContext& ctx) const;

  std::int64_t epoch_ns_ = 0;
  bool installed_ = false;
  // lint: transient(live-system wiring captured by arm(); a load reuses it to re-install the transform)
  InjectionContext* armed_ctx_ = nullptr;
};

/// Raises the source `lead` before each TDMA boundary so the resulting
/// bottom handler straddles the boundary and forces a deferred slot switch
/// -- the engine's bounded-interference mechanism under maximal pressure.
class SlotOverrunInjector final : public FaultInjector {
 public:
  using FaultInjector::FaultInjector;

 private:
  void do_arm(InjectionContext& ctx) override;
};

/// Tight-spaced raise train that outruns the subscriber's queue drain rate
/// and overflows its IRQ queue (drops must be counted, never silent).
class FloodInjector final : public FaultInjector {
 public:
  using FaultInjector::FaultInjector;

 private:
  void do_arm(InjectionContext& ctx) override;
};

/// Greedy adversary searching for the activation pattern that maximizes
/// admitted interference: it mirrors the monitor's tracebuffer (Algorithm 1
/// records *every* activation, so the shadow stays exact) and raises at the
/// earliest instant the delta^- condition still admits. With probe_every
/// set, every Nth raise lands probe_under short of d_min instead -- which a
/// correct monitor must deny.
class AdversaryInjector final : public FaultInjector {
 public:
  using FaultInjector::FaultInjector;

  void visit(sim::StateWriter& ar) override { state(ar); }
  void visit(sim::StateReader& ar) override { state(ar); }

 private:
  template <class Ar>
  void state(Ar& ar) {
    FaultInjector::state(ar);
    ar.vec(shadow_);
    ar(shadow_count_, raises_done_);
  }

  void do_arm(InjectionContext& ctx) override;
  void schedule_next(InjectionContext& ctx, std::uint64_t remaining);
  [[nodiscard]] sim::TimePoint earliest_admissible(sim::TimePoint now) const;
  void shadow_record(sim::TimePoint t);

  mon::DeltaVector deltas_;  // lint: transient(mirror of the monitor's configured vector, built at arm; constant thereafter)
  std::vector<sim::TimePoint> shadow_;  // [0] = most recent raise
  std::size_t shadow_count_ = 0;
  std::uint64_t raises_done_ = 0;
};

/// Builds the injector for a spec (the engine's factory).
[[nodiscard]] std::unique_ptr<FaultInjector> make_injector(const InjectionSpec& spec,
                                                           std::uint64_t seed);

}  // namespace rthv::fault
