// Static TDMA partition schedule.
//
// Partitions are assigned fixed-length time slots; the hypervisor cycles
// through them in static order. Slot boundaries lie on a fixed absolute
// grid anchored at t = 0: even when a boundary's handling is deferred (e.g.
// by an in-flight interposed bottom handler), the *next* boundary stays on
// grid, so a deferral shortens the following slot instead of drifting the
// whole schedule -- that shortening is exactly the bounded interference of
// Eq. 14.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hv/types.hpp"
#include "sim/time.hpp"

namespace rthv::hv {

struct TdmaSlot {
  PartitionId partition;
  sim::Duration length;
};

class TdmaScheduler {
 public:
  explicit TdmaScheduler(std::vector<TdmaSlot> slots);

  [[nodiscard]] const std::vector<TdmaSlot>& slots() const { return slots_; }
  [[nodiscard]] sim::Duration cycle_length() const { return cycle_; }

  /// Slot length of a partition's (first) slot; Duration::zero() if the
  /// partition has no slot.
  [[nodiscard]] sim::Duration slot_length_of(PartitionId p) const;

  /// Owner of the currently active slot.
  [[nodiscard]] PartitionId current_owner() const { return slots_[index_].partition; }
  [[nodiscard]] std::size_t current_index() const { return index_; }

  /// Absolute grid time at which the current slot ends.
  [[nodiscard]] sim::TimePoint current_boundary() const { return boundary_; }

  /// Advances to the next slot; returns its owner. The new boundary is the
  /// old one plus the new slot's length (fixed grid).
  PartitionId advance();

  /// Number of completed TDMA cycles.
  [[nodiscard]] std::uint64_t cycles_completed() const { return cycles_; }

  /// Checkpoint of the schedule position (the slot table is static).
  template <class Ar>
  void state(Ar& ar) {
    ar(index_, boundary_, cycles_);
  }

 private:
  std::vector<TdmaSlot> slots_;  // lint: transient(static schedule table fixed at construction)
  sim::Duration cycle_;  // lint: transient(derived sum of the static slot table)
  std::size_t index_ = 0;
  sim::TimePoint boundary_;
  std::uint64_t cycles_ = 0;
};

}  // namespace rthv::hv
