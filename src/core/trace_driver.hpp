// Drives an IRQ line from a precomputed activation trace.
//
// Exactly the paper's measurement methodology (Section 6.1): a hardware
// timer is reprogrammed on each expiry with the next entry of a distance
// array generated *before* the experiment, "in order not to introduce
// additional overhead in the top handler". The reprogramming runs in the
// timer's expiry hook at zero simulated cost.
#pragma once

#include <cstdint>

#include "hw/hw_timer.hpp"
#include "workload/trace.hpp"

namespace rthv::core {

class TraceIrqDriver {
 public:
  TraceIrqDriver(hw::HwTimer& timer, workload::Trace trace);
  /// Clears the timer's expiry hook, so nothing calls into a dropped driver.
  ~TraceIrqDriver() { timer_.set_on_expiry({}); }
  TraceIrqDriver(const TraceIrqDriver&) = delete;
  TraceIrqDriver& operator=(const TraceIrqDriver&) = delete;

  /// Programs the first interarrival distance. Call once before running.
  void start();

  [[nodiscard]] std::uint64_t fired() const { return timer_.fires(); }
  [[nodiscard]] bool exhausted() const { return next_ >= trace_.size(); }
  [[nodiscard]] const workload::Trace& trace() const { return trace_; }

  /// Checkpoint of the replay cursor; the timer's armed deadline and the
  /// expiry hook live in the hardware/simulator snapshots.
  template <class Ar>
  void state(Ar& ar) {
    ar(next_, started_);
  }

 private:
  void arm_next();

  hw::HwTimer& timer_;
  workload::Trace trace_;  // lint: transient(attached trace data is immutable; next_ is the replay cursor)
  std::size_t next_ = 0;
  bool started_ = false;
};

}  // namespace rthv::core
