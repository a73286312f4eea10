#include "core/analysis_facade.hpp"

#include <cassert>
#include <stdexcept>

namespace rthv::core {

AnalysisFacade::AnalysisFacade(const SystemConfig& config)
    : config_(config), overheads_(config_.platform, config_.overheads) {}

analysis::TdmaModel AnalysisFacade::tdma_model(std::uint32_t source_index) const {
  if (source_index >= config_.sources.size()) {
    throw std::invalid_argument("tdma_model: source index out of range");
  }
  const auto& src = config_.sources[source_index];
  return analysis::TdmaModel{config_.tdma_cycle(),
                             config_.partitions.at(src.subscriber).slot_length,
                             overheads_.tdma_tick_cost() +
                                 overheads_.context_switch_cost()};
}

analysis::IrqSourceModel AnalysisFacade::source_model(
    std::uint32_t source_index,
    std::shared_ptr<const analysis::MinDistanceFunction> activation) const {
  if (source_index >= config_.sources.size()) {
    throw std::invalid_argument("source_model: source index out of range");
  }
  const auto& src = config_.sources[source_index];
  return analysis::IrqSourceModel{std::move(activation), src.c_top, src.c_bottom};
}

std::vector<analysis::IrqSourceModel> AnalysisFacade::interferers(
    std::uint32_t analyzed_index,
    const std::vector<std::shared_ptr<const analysis::MinDistanceFunction>>& activations)
    const {
  assert(activations.size() == config_.sources.size());
  std::vector<analysis::IrqSourceModel> out;
  for (std::uint32_t i = 0; i < config_.sources.size(); ++i) {
    if (i == analyzed_index) continue;
    out.push_back(source_model(i, activations[i]));
  }
  return out;
}

WcrtComparison AnalysisFacade::compare(
    std::uint32_t source_index,
    std::shared_ptr<const analysis::MinDistanceFunction> activation,
    bool monitoring_active) const {
  const auto own = source_model(source_index, std::move(activation));
  const std::vector<analysis::IrqSourceModel> others;  // single analyzed source
  WcrtComparison out;
  out.tdma_delayed = analysis::tdma_latency(own, others, tdma_model(source_index),
                                            overhead_times(), monitoring_active);
  out.interposed = analysis::interposed_latency(own, others, overhead_times());
  return out;
}

}  // namespace rthv::core
