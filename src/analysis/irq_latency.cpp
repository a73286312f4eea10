#include "analysis/irq_latency.hpp"

#include <cassert>
#include <utility>

#include "core/checked.hpp"

namespace rthv::analysis {

sim::Duration effective_bottom_cost(sim::Duration c_bottom, const OverheadTimes& oh) {
  // C'_BH = C_BH + C_sched + 2 * C_ctx (Eq. 13).
  const sim::Duration switches =
      core::checked_mul(oh.c_ctx, std::int64_t{2}, "analysis/effective-bottom");
  return core::checked_add(core::checked_add(c_bottom, oh.c_sched,
                                             "analysis/effective-bottom"),
                           switches, "analysis/effective-bottom");
}

sim::Duration effective_top_cost(sim::Duration c_top, const OverheadTimes& oh) {
  return core::checked_add(c_top, oh.c_mon, "analysis/effective-top");
}

sim::Duration tdma_interference(sim::Duration dt, const TdmaModel& tdma) {
  RTHV_PRECONDITION(tdma.cycle.is_positive(), "analysis/tdma-cycle-positive");
  RTHV_PRECONDITION(tdma.slot.is_positive() && tdma.slot <= tdma.cycle,
                    "analysis/tdma-slot-in-cycle");
  if (!dt.is_positive()) return sim::Duration::zero();
  const std::int64_t cycles = core::ceil_div(dt, tdma.cycle, "analysis/tdma-cycles");
  const sim::Duration blocked_per_cycle = core::checked_add(
      core::checked_sub(tdma.cycle, tdma.slot, "analysis/tdma-blocked"),
      tdma.entry_overhead, "analysis/tdma-blocked");
  return core::checked_mul(blocked_per_cycle, cycles, "analysis/tdma-interference");
}

sim::Duration interposed_interference(sim::Duration dt, sim::Duration d_min,
                                      sim::Duration effective_bottom) {
  RTHV_PRECONDITION(d_min.is_positive(), "analysis/interposed-dmin-positive");
  if (!dt.is_positive()) return sim::Duration::zero();
  // I(dt) = ceil(dt / d_min) * C'_BH (Eq. 14).
  const std::int64_t n = core::ceil_div(dt, d_min, "analysis/interposed-count");
  return core::checked_mul(effective_bottom, n, "analysis/interposed-interference");
}

sim::Duration interposed_interference(sim::Duration dt,
                                      const MinDistanceFunction& monitor_delta,
                                      sim::Duration effective_bottom) {
  if (!dt.is_positive()) return sim::Duration::zero();
  // Wrap the delta function in an arrival curve without taking ownership.
  struct Ref final : MinDistanceFunction {
    explicit Ref(const MinDistanceFunction& f) : f_(f) {}
    [[nodiscard]] sim::Duration at(std::uint64_t q) const override { return f_(q); }
    const MinDistanceFunction& f_;
  };
  const ArrivalCurve eta(std::make_shared<Ref>(monitor_delta));
  return core::checked_mul(effective_bottom, eta(dt),
                           "analysis/interposed-interference");
}

namespace {

/// Own-source top-handler interference beyond the q events already counted
/// (Eq. 10): (eta_i(W) - q) * C_TH -- but because the busy-window solver
/// already accounts q * (C_TH + C_BH) via per_event_cost, we instead model
/// per_event_cost = C_BH and add eta_i(W) * C_TH here, which is the form
/// used in Eq. 11/16.
InterferenceTerm own_top_interference(std::shared_ptr<const MinDistanceFunction> delta,
                                      sim::Duration c_top) {
  return load_interference(ArrivalCurve(std::move(delta)), c_top);
}

void add_other_tops(BusyWindowProblem& problem, const std::vector<IrqSourceModel>& others) {
  for (const auto& o : others) {
    assert(o.activation != nullptr);
    problem.interference.push_back(
        load_interference(ArrivalCurve(o.activation), o.c_top));
  }
}

}  // namespace

std::optional<ResponseTimeResult> tdma_latency(const IrqSourceModel& own,
                                               const std::vector<IrqSourceModel>& others,
                                               const TdmaModel& tdma,
                                               const OverheadTimes& oh,
                                               bool monitoring_active) {
  assert(own.activation != nullptr);
  const sim::Duration c_top =
      monitoring_active ? effective_top_cost(own.c_top, oh) : own.c_top;

  BusyWindowProblem problem;
  problem.per_event_cost = own.c_bottom;
  problem.interference.push_back(own_top_interference(own.activation, c_top));
  problem.interference.push_back(
      [tdma](sim::Duration w) { return tdma_interference(w, tdma); });
  add_other_tops(problem, others);

  return response_time(problem, *own.activation);
}

std::optional<ResponseTimeResult> interposed_latency(
    const IrqSourceModel& own, const std::vector<IrqSourceModel>& others,
    const OverheadTimes& oh) {
  assert(own.activation != nullptr);

  BusyWindowProblem problem;
  problem.per_event_cost = effective_bottom_cost(own.c_bottom, oh);
  problem.interference.push_back(
      own_top_interference(own.activation, effective_top_cost(own.c_top, oh)));
  add_other_tops(problem, others);

  return response_time(problem, *own.activation);
}

}  // namespace rthv::analysis
