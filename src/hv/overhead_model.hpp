// Hypervisor overhead budgets (paper Section 5 / 6.2) -- the one place the
// paper's cost model is converted to simulated time.
//
// All budgets are expressed the way the paper reports them -- instruction
// counts (executed at the CPU model's CPI) plus raw cycles for memory
// effects -- and converted once, at construction, from the platform's
// PlatformConfig and the hypervisor's OverheadConfig:
//
//   C_Mon    = 128 instructions   (monitoring function incl. scheduler call)
//   C_sched  = 877 instructions   (scheduler manipulation for interposing)
//   C_ctx    = 5000 instructions  (cache/TLB invalidation)
//              + 5000 cycles      (cache writebacks, memory-layout specific)
//   TDMA tick = 100 instructions  (slot-switch decision; not reported in the
//                                  paper, small and configurable)
//
// Eq. 13 and Eq. 15 are delegated to the checked analysis::
// effective_bottom_cost / effective_top_cost, so the simulator and the
// analysis charge the same C'_BH and C'_TH.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "analysis/irq_latency.hpp"
#include "hw/platform.hpp"
#include "sim/time.hpp"

namespace rthv::hv {

struct OverheadConfig {
  std::uint64_t monitor_instructions = 128;
  std::uint64_t sched_manipulation_instructions = 877;
  std::uint64_t tdma_tick_instructions = 100;
};

/// The context-switch budget as configured, for cycle accounting.
struct ContextSwitchCost {
  std::uint64_t invalidate_instructions;  // cache/TLB invalidation code
  hw::Cycles writeback_cycles;            // dirty-line writeback stalls
};

/// A budget whose conversion leaves the simulated time range; key() names
/// the PlatformConfig / OverheadConfig field (and config-file key) at fault.
class BudgetOverflow : public std::overflow_error {
 public:
  explicit BudgetOverflow(const char* key)
      : std::overflow_error(std::string(key) + " does not fit simulated time"),
        key_(key) {}
  [[nodiscard]] const char* key() const { return key_; }

 private:
  const char* key_;
};

/// Converts the configured budgets into durations for a concrete platform.
class OverheadModel {
 public:
  /// Throws BudgetOverflow when a budget does not fit simulated time.
  explicit OverheadModel(const hw::PlatformConfig& platform,
                         const OverheadConfig& config = {});

  [[nodiscard]] sim::Duration monitor_cost() const { return times_.c_mon; }            // C_Mon
  [[nodiscard]] sim::Duration sched_manipulation_cost() const { return times_.c_sched; }  // C_sched
  [[nodiscard]] sim::Duration context_switch_cost() const { return times_.c_ctx; }     // C_ctx
  [[nodiscard]] sim::Duration tdma_tick_cost() const { return c_tick_; }

  /// C_Mon, C_sched and C_ctx as the analysis consumes them.
  [[nodiscard]] const analysis::OverheadTimes& times() const { return times_; }

  /// Eq. 13: C'_BH = C_BH + C_sched + 2 * C_ctx.
  [[nodiscard]] sim::Duration effective_bottom_cost(sim::Duration c_bottom) const {
    return analysis::effective_bottom_cost(c_bottom, times_);
  }

  /// Eq. 15: C'_TH = C_TH + C_Mon.
  [[nodiscard]] sim::Duration effective_top_cost(sim::Duration c_top) const {
    return analysis::effective_top_cost(c_top, times_);
  }

  [[nodiscard]] const OverheadConfig& config() const { return cfg_; }
  [[nodiscard]] ContextSwitchCost raw_context_switch_cost() const { return ctx_raw_; }

 private:
  OverheadConfig cfg_;
  ContextSwitchCost ctx_raw_;
  analysis::OverheadTimes times_;
  sim::Duration c_tick_;
};

}  // namespace rthv::hv
