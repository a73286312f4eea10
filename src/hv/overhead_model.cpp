#include "hv/overhead_model.hpp"

#include "core/checked.hpp"

namespace rthv::hv {

namespace {

/// Runs one budget conversion, naming the budget when it overflows.
template <typename F>
sim::Duration convert(const char* key, F&& to_duration) {
  try {
    return to_duration();
  } catch (const core::ArithmeticError&) {
    throw BudgetOverflow(key);
  }
}

}  // namespace

OverheadModel::OverheadModel(const hw::PlatformConfig& platform,
                             const OverheadConfig& config)
    : cfg_(config),
      ctx_raw_{platform.ctx_invalidate_instructions, platform.ctx_writeback_cycles} {
  const hw::CpuModel cpu(platform.cpu_freq_hz, platform.cpi_milli);
  const auto instructions = [&](const char* key, std::uint64_t n) {
    return convert(key, [&] { return cpu.instructions_to_duration(n); });
  };
  times_.c_mon = instructions("monitor_instructions", cfg_.monitor_instructions);
  times_.c_sched = instructions("sched_manipulation_instructions",
                                cfg_.sched_manipulation_instructions);
  // Each part stays below 2^64 ps, so the sum cannot leave int64 ns.
  times_.c_ctx =
      instructions("ctx_invalidate_instructions", ctx_raw_.invalidate_instructions) +
      convert("ctx_writeback_cycles",
              [&] { return cpu.cycles_to_duration(ctx_raw_.writeback_cycles); });
  c_tick_ = instructions("tdma_tick_instructions", cfg_.tdma_tick_instructions);
}

}  // namespace rthv::hv
