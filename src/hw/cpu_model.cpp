#include "hw/cpu_model.hpp"

#include "core/checked.hpp"

namespace rthv::hw {

std::string_view to_string(WorkCategory c) {
  switch (c) {
    case WorkCategory::kTopHandler: return "top-handler";
    case WorkCategory::kMonitor: return "monitor";
    case WorkCategory::kSchedManipulation: return "sched-manipulation";
    case WorkCategory::kContextSwitch: return "context-switch";
    case WorkCategory::kCacheWriteback: return "cache-writeback";
    case WorkCategory::kBottomHandler: return "bottom-handler";
    case WorkCategory::kGuest: return "guest";
    case WorkCategory::kIdle: return "idle";
    case WorkCategory::kCount_: break;
  }
  return "?";
}

CpuModel::CpuModel(std::uint64_t freq_hz, std::uint32_t cpi_milli)
    : freq_hz_(freq_hz), cpi_milli_(cpi_milli) {
  RTHV_PRECONDITION(freq_hz_ > 0, "hw/cpu-frequency-positive");
  RTHV_PRECONDITION(cpi_milli_ > 0, "hw/cpu-cpi-positive");
  cycle_ps_ = 1'000'000'000'000ULL / freq_hz_;
  RTHV_PRECONDITION(cycle_ps_ > 0, "hw/cpu-frequency-below-1thz");
}

sim::Duration CpuModel::cycles_to_duration(Cycles cycles) const {
  // Round picoseconds to nanoseconds (cycle_ps_ is exact for the paper's
  // 200 MHz: 5000 ps -> 5 ns, so no rounding error occurs there). The
  // picosecond product wraps for cycle counts past ~42 days at 200 MHz, so
  // the scaling is checked rather than cast.
  const std::uint64_t ps = core::checked_mul(cycles.count(), cycle_ps_, "hw/cycles-to-ps");
  const std::uint64_t ns =
      core::checked_add(ps, std::uint64_t{500}, "hw/ps-rounding") / 1000;
  return sim::Duration::ns(core::checked_cast<std::int64_t>(ns, "hw/ps-to-ns"));
}

Cycles CpuModel::instruction_cycles(std::uint64_t instructions) const {
  return Cycles{core::checked_mul(instructions, std::uint64_t{cpi_milli_},
                                  "hw/instructions-to-cycles") /
                1000};
}

sim::Duration CpuModel::instructions_to_duration(std::uint64_t instructions) const {
  return cycles_to_duration(instruction_cycles(instructions));
}

Cycles CpuModel::duration_to_cycles(sim::Duration d) const {
  RTHV_PRECONDITION(!d.is_negative(), "hw/cycle-duration-nonnegative");
  const auto ns = static_cast<std::uint64_t>(d.count_ns());
  // Fast path for every realistic duration: ns * 1000 stays below 2^64 for
  // anything under ~213 simulated days, so the checked scaling is only
  // needed past that. Same floor semantics as the checked path.
  if (ns < UINT64_MAX / 1000) return Cycles{(ns * 1000) / cycle_ps_};
  const std::uint64_t ps = core::checked_mul(ns, std::uint64_t{1000}, "hw/ns-to-ps");
  return Cycles{ps / cycle_ps_};
}

namespace {

Cycles checked_sum(Cycles a, Cycles b) {
  return Cycles{core::checked_add(a.count(), b.count(), "hw/cycle-accounting")};
}

}  // namespace

void CpuModel::retire_cycles(WorkCategory c, Cycles cycles) {
  auto& slot = cycles_[static_cast<std::size_t>(c)];
  slot = checked_sum(slot, cycles);
}

void CpuModel::retire_instructions(WorkCategory c, std::uint64_t instructions) {
  retire_cycles(c, instruction_cycles(instructions));
}

Cycles CpuModel::cycles_in(WorkCategory c) const {
  const auto i = static_cast<std::size_t>(c);
  return checked_sum(cycles_[i],
                     duration_to_cycles(sim::Duration::ns(core::checked_cast<std::int64_t>(
                         duration_ns_[i], "hw/duration-accounting"))));
}

Cycles CpuModel::total_cycles() const {
  Cycles total;
  for (std::size_t i = 0; i < cycles_.size(); ++i) {
    total = checked_sum(total, cycles_in(static_cast<WorkCategory>(i)));
  }
  return total;
}

void CpuModel::reset_accounting() {
  cycles_.fill(Cycles{});
  duration_ns_.fill(0);
}

}  // namespace rthv::hw
