// Hypervisor health monitoring (ARINC653 HM flavour).
//
// The paper motivates sufficient temporal independence with certification
// standards (IEC61508); certifiable hypervisors pair the isolation
// mechanism with a health monitor that records and reports violations of
// the assumptions the analysis rests on. This module collects such events
// from the hypervisor:
//
//   kIrqQueueOverflow  -- an emulated-IRQ event was dropped (queue full):
//                         the subscriber is not keeping up with its stream.
//   kIrqRaiseLost      -- a hardware raise hit an already-pending latch
//                         (the non-counting-flag hazard of Section 4).
//   kMonitorViolation  -- an activation violated the delta^- condition
//                         (expected under scenario 2; a *rate* of
//                         violations is an integration-error symptom).
//   kBudgetOverrun     -- an interposed bottom handler did not finish
//                         within its declared budget C_BHi (its WCET claim
//                         was wrong) and was carried into its own slot.
//   kDeferredBoundary  -- a TDMA boundary was deferred by a running bottom
//                         handler (bounded, but safety cases may cap it).
//
// Events are kept in a bounded ring buffer with per-kind counters; an
// optional callback lets system software react (e.g. ARINC653 partition
// restart policies).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>
#include <type_traits>

#include "hv/types.hpp"
#include "obs/trace_ring.hpp"
#include "sim/time.hpp"

namespace rthv::hv {

enum class HealthEventKind : std::uint8_t {
  kIrqQueueOverflow,
  kIrqRaiseLost,
  kMonitorViolation,
  kBudgetOverrun,
  kDeferredBoundary,
  kCount_,
};

[[nodiscard]] std::string_view to_string(HealthEventKind k);

/// No padding: the ring is checkpointed by memcpy. Build it with designated
/// initialisers.
struct HealthEvent {
  sim::TimePoint time;
  HealthEventKind kind = HealthEventKind::kIrqQueueOverflow;
  std::uint8_t reserved0 = 0;   // explicit padding, always zero
  std::uint16_t reserved1 = 0;  // explicit padding, always zero
  /// Affected partition (kInvalidPartition when not applicable).
  PartitionId partition = kInvalidPartition;
  /// Originating IRQ source (UINT32_MAX when not applicable).
  IrqSourceId source = UINT32_MAX;
  std::uint32_t reserved2 = 0;  // explicit padding, always zero
};

static_assert(std::has_unique_object_representations_v<HealthEvent>,
              "HealthEvent must have no padding bytes");

class HealthMonitor {
 public:
  using Callback = std::function<void(const HealthEvent&)>;

  explicit HealthMonitor(std::size_t ring_capacity = 256);

  void report(const HealthEvent& event);

  void set_callback(Callback cb) { callback_ = std::move(cb); }

  /// Re-emits every reported event as a typed kHealth trace record
  /// (arg0 = HealthEventKind) on `ring`; pass nullptr to detach.
  void set_trace(obs::TraceRing* ring) { trace_ = ring; }

  [[nodiscard]] std::uint64_t count(HealthEventKind k) const;
  [[nodiscard]] std::uint64_t total() const;

  /// Most recent events, oldest first (bounded by the ring capacity).
  [[nodiscard]] const std::deque<HealthEvent>& recent() const { return ring_; }

  void clear();

  /// Checkpoint of the event ring and per-kind counters (callback and trace
  /// attachment are wiring).
  template <class Ar>
  void state(Ar& ar) {
    ar.vec(ring_);
    ar(counts_);
  }

 private:
  std::size_t capacity_;  // lint: transient(structural ring bound fixed at construction)
  std::deque<HealthEvent> ring_;
  std::array<std::uint64_t, static_cast<std::size_t>(HealthEventKind::kCount_)> counts_{};
  Callback callback_;  // lint: transient(owner wiring, re-established at system assembly)
  obs::TraceRing* trace_ = nullptr;  // lint: transient(trace wiring; the ring is snapshotted by its owner)
};

}  // namespace rthv::hv
