// Bridges a SystemConfig to the worst-case latency analysis of Sections
// 4-5: builds the TDMA model, overhead times and interferer set for one IRQ
// source and runs both analyses (Eq. 11/12 delayed vs. Eq. 16 interposed).
#pragma once

#include <memory>
#include <optional>

#include "analysis/irq_latency.hpp"
#include "core/system_config.hpp"
#include "hv/overhead_model.hpp"

namespace rthv::core {

struct WcrtComparison {
  std::optional<analysis::ResponseTimeResult> tdma_delayed;  // Eq. 11/12
  std::optional<analysis::ResponseTimeResult> interposed;    // Eq. 16
};

class AnalysisFacade {
 public:
  explicit AnalysisFacade(const SystemConfig& config);

  /// Overhead constants converted to time on the configured platform.
  [[nodiscard]] analysis::OverheadTimes overhead_times() const {
    return overheads_.times();
  }

  /// TDMA cycle and the subscriber's slot for a source.
  [[nodiscard]] analysis::TdmaModel tdma_model(std::uint32_t source_index) const;

  /// Analysis model of one source under a given activation model.
  [[nodiscard]] analysis::IrqSourceModel source_model(
      std::uint32_t source_index,
      std::shared_ptr<const analysis::MinDistanceFunction> activation) const;

  /// All other sources as top-handler interferers, each under its own
  /// activation model (caller supplies them in source order; the analyzed
  /// index is skipped).
  [[nodiscard]] std::vector<analysis::IrqSourceModel> interferers(
      std::uint32_t analyzed_index,
      const std::vector<std::shared_ptr<const analysis::MinDistanceFunction>>&
          activations) const;

  /// Runs both analyses for a source whose activations follow `activation`;
  /// `monitoring_active` controls whether the delayed analysis charges
  /// C_Mon on the top handler (scenario 2 of Section 5.1).
  [[nodiscard]] WcrtComparison compare(
      std::uint32_t source_index,
      std::shared_ptr<const analysis::MinDistanceFunction> activation,
      bool monitoring_active) const;

 private:
  SystemConfig config_;
  hv::OverheadModel overheads_;
};

}  // namespace rthv::core
