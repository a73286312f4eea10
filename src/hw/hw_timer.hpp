// Programmable one-shot hardware timer.
//
// On expiry the timer raises its IRQ line on the interrupt controller. It
// can be reprogrammed from within a handler -- the paper's experiments
// reprogram the IRQ-source timer from the top handler with the next entry of
// a precomputed interarrival-distance array (Section 6.1).
#pragma once

#include <functional>

#include "hw/interrupt_controller.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace rthv::hw {

class HwTimer {
 public:
  HwTimer(sim::Simulator& simulator, InterruptController& intc, IrqLine line);

  /// Programs the timer to fire after `delay` from now. Reprogramming an
  /// armed timer replaces the previous deadline.
  void program(sim::Duration delay);

  /// Auto-reload mode: fires every `period` until cancelled.
  void program_periodic(sim::Duration period);

  /// Programs the timer to fire at an absolute time.
  void program_at(sim::TimePoint deadline);

  /// Disarms the timer if armed.
  void cancel();

  [[nodiscard]] bool armed() const { return pending_.valid() && armed_; }
  [[nodiscard]] sim::TimePoint deadline() const { return deadline_; }
  [[nodiscard]] IrqLine line() const { return line_; }
  [[nodiscard]] std::uint64_t fires() const { return fires_; }

  /// Optional hook run at expiry *before* the IRQ line is raised; used by
  /// trace-driven IRQ sources to auto-reprogram the next interarrival
  /// distance (modelled as zero-cost, matching the paper's precomputed
  /// arrays).
  void set_on_expiry(std::function<void()> hook) { on_expiry_ = std::move(hook); }

  /// Optional fault hook applied to every deadline the timer arms (one-shot
  /// and auto-reload alike): models oscillator drift / jitter on the tick
  /// source. The transformed deadline is clamped to the current simulation
  /// time, so a perturbation can advance or delay a tick but never schedule
  /// it in the past.
  using DeadlineTransform = std::function<sim::TimePoint(sim::TimePoint)>;
  void set_deadline_transform(DeadlineTransform transform) {
    deadline_transform_ = std::move(transform);
  }
  [[nodiscard]] bool has_deadline_transform() const {
    return static_cast<bool>(deadline_transform_);
  }

  /// Checkpoint of the arming state. The pending EventId round-trips as a
  /// value: the simulator snapshot preserves slot generations, so a restored
  /// id refers to exactly the queued expiry event it did at snapshot time.
  template <class Ar>
  void state(Ar& ar) {
    ar(pending_, armed_, deadline_, reload_, fires_);
  }

 private:
  void fire();
  void disarm();
  [[nodiscard]] sim::TimePoint perturbed(sim::TimePoint deadline) const;

  sim::Simulator& sim_;
  InterruptController& intc_;
  IrqLine line_;  // lint: transient(structural line assignment fixed at construction)
  sim::EventId pending_;
  bool armed_ = false;
  sim::TimePoint deadline_;
  sim::Duration reload_;  // zero = one-shot
  std::uint64_t fires_ = 0;
  std::function<void()> on_expiry_;  // lint: transient(owner wiring, re-established at system assembly)
  DeadlineTransform deadline_transform_;  // lint: transient(fault wiring; ClockDriftInjector::state re-installs it after a load)
};

/// Free-running timestamp source (the paper's "second timer" used for
/// latency measurement). In simulation it simply reads the virtual clock.
class TimestampTimer {
 public:
  explicit TimestampTimer(const sim::Simulator& simulator) : sim_(simulator) {}
  [[nodiscard]] sim::TimePoint now() const { return sim_.now(); }

 private:
  const sim::Simulator& sim_;
};

}  // namespace rthv::hw
