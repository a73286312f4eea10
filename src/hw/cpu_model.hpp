// CPU cost model of the simulated platform.
//
// The paper's evaluation platform is an ARM926ej-s at 200 MHz; all hypervisor
// overheads in Section 6.2 are reported in *instructions* (monitor: 128,
// scheduler manipulation: 877, context switch: ~5000) or *cycles* (cache
// writeback: ~5000). This model converts those budgets into simulated time
// (instructions * CPI * cycle_time) and keeps per-category retirement
// counters so benches can report the measured overhead breakdown.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace rthv::hw {

/// What a batch of retired work was spent on; used for overhead accounting.
enum class WorkCategory : std::uint8_t {
  kTopHandler,
  kMonitor,
  kSchedManipulation,
  kContextSwitch,
  kCacheWriteback,
  kBottomHandler,
  kGuest,
  kIdle,
  kCount_,  // sentinel
};

[[nodiscard]] std::string_view to_string(WorkCategory c);

class CpuModel {
 public:
  /// @param freq_hz   core clock (paper: 200 MHz)
  /// @param cpi_milli cycles per instruction in thousandths (1000 = 1.0 CPI)
  explicit CpuModel(std::uint64_t freq_hz = 200'000'000, std::uint32_t cpi_milli = 1000);

  [[nodiscard]] std::uint64_t frequency_hz() const { return freq_hz_; }

  /// Duration of `cycles` clock cycles.
  [[nodiscard]] sim::Duration cycles_to_duration(std::uint64_t cycles) const;

  /// Duration of `instructions` at the configured CPI.
  [[nodiscard]] sim::Duration instructions_to_duration(std::uint64_t instructions) const;

  /// Cycles that elapse in `d` (floor).
  [[nodiscard]] std::uint64_t duration_to_cycles(sim::Duration d) const;

  /// Accounts `cycles` of retired work to a category. Pure bookkeeping: it
  /// does not advance time -- callers schedule the corresponding delay.
  void retire_cycles(WorkCategory c, std::uint64_t cycles);
  void retire_instructions(WorkCategory c, std::uint64_t instructions);
  /// Duration-denominated retirement is the hot accounting path (every
  /// timed hypervisor step and every executed work slice lands here), so it
  /// only accumulates nanoseconds; the division into cycles happens once
  /// per category on query. Cycle counts are therefore the floor of the
  /// *summed* duration rather than a sum of per-call floors -- at least as
  /// accurate, and identical whenever durations are cycle-aligned (every
  /// paper overhead is).
  void retire_duration(WorkCategory c, sim::Duration d) {
    duration_ns_[static_cast<std::size_t>(c)] +=
        static_cast<std::uint64_t>(d.count_ns());
  }

  [[nodiscard]] std::uint64_t cycles_in(WorkCategory c) const;
  [[nodiscard]] std::uint64_t total_cycles() const;

  void reset_accounting();

  /// Checkpoint of the mutable accounting ledgers (clock config is static).
  template <class Ar>
  void state(Ar& ar) {
    ar(cycles_, duration_ns_);
  }

 private:
  std::uint64_t freq_hz_;  // lint: transient(hardware constant fixed at construction)
  std::uint32_t cpi_milli_;  // lint: transient(hardware constant fixed at construction)
  std::uint64_t cycle_ps_;  // picoseconds per cycle, exact for 200MHz (5000ps)  // lint: transient(derived hardware constant)
  std::array<std::uint64_t, static_cast<std::size_t>(WorkCategory::kCount_)> cycles_{};
  /// Duration-denominated retirement ledger (ns), folded into cycles_ on query.
  std::array<std::uint64_t, static_cast<std::size_t>(WorkCategory::kCount_)>
      duration_ns_{};
};

}  // namespace rthv::hw
