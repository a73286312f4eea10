#include "fig6_common.hpp"

#include <ostream>

#include "exp/batch_runner.hpp"
#include "exp/run_result.hpp"
#include "exp/seed.hpp"
#include "exp/system_pool.hpp"
#include "fault/fault_engine.hpp"
#include "fault/oracle.hpp"
#include "hv/overhead_model.hpp"
#include "stats/export.hpp"
#include "stats/table.hpp"
#include "workload/generators.hpp"

namespace rthv::bench {

using sim::Duration;

Fig6Result run_fig6(const Fig6Config& config) {
  auto base = core::SystemConfig::paper_baseline();
  // Single-core experiment: every partition and the measured source live on
  // core 0 (the PartitionSpec/IrqSourceSpec default), stated explicitly now
  // that configs carry core assignments.
  base.interconnect.num_cores = 1;
  for (auto& p : base.partitions) p.core = 0;
  for (auto& s : base.sources) s.core = 0;
  const Duration c_bh_eff =
      hv::OverheadModel(base.platform, base.overheads).effective_bottom_cost(
          base.sources[0].c_bottom);
  // d_min fixed at the highest configured load's lambda.
  int max_load = 1;
  for (const int l : config.load_percent) max_load = std::max(max_load, l);
  const auto d_min = Duration::ns(c_bh_eff.count_ns() * 100 / max_load);

  if (config.monitored) {
    base.mode = hv::TopHandlerMode::kInterposing;
    base.sources[0].monitor = core::MonitorKind::kDeltaMin;
    base.sources[0].d_min = d_min;
  }
  // UINTC-style variant: hardware vectors the source past the hypervisor;
  // the monitor (if any) keeps judging the same activations as a shadow, so
  // admission statistics stay comparable with the interposing run.
  if (config.direct) base.sources[0].direct_delivery = true;

  const Duration hist_lo = Duration::zero();
  const Duration hist_hi = Duration::us(8500);
  const Duration hist_bin = Duration::us(100);

  // A fault plan is parsed once and shared (read-only) by all runs; each
  // run arms its own engine with a seed derived from the run index.
  fault::FaultPlan plan;
  if (!config.fault_plan.empty()) {
    plan = fault::load_fault_plan_file(config.fault_plan);
  }
  std::vector<fault::OracleReport> oracle_reports(config.load_percent.size());

  // Pre-size the event core from the sweep plan: all runs share one horizon
  // (the fault plan's when set), and the steady-state pending set of a
  // single-source system stays small.
  const Duration horizon =
      !plan.empty() && plan.horizon.is_positive() ? plan.horizon : Duration::s(1000);
  base.sim_horizon_hint = horizon;
  base.expected_pending_events = 128;

  // One independent run per load step on pooled systems recycled by
  // snapshot warm-start. Each run's seed depends only on its index
  // (config.seed + i, the original sequential seed sequence), so the merged
  // result is bit-identical for any job count. Per-run settings -- kept
  // completions, tracing, the fault engine -- are switched on the leased
  // system; the next recycle restores the pristine settings (see
  // SystemPool).
  exp::SystemPool pool(base);
  exp::BatchRunner runner(exp::BatchOptions{.jobs = config.jobs, .chunk = config.chunk});
  auto runs = runner.map(
      pool, config.load_percent.size(), [&](std::size_t i, core::HypervisorSystem& system) {
        if ((config.trace && i == 0) || !plan.empty()) system.enable_tracing();
        const int load = config.load_percent[i];
        const auto lambda = Duration::ns(c_bh_eff.count_ns() * 100 / load);
        workload::ExponentialTraceGenerator gen(
            lambda, config.seed + i, config.enforce_floor ? d_min : Duration::zero());
        system.attach_trace(0, gen.generate(config.irqs_per_load));
        system.keep_completions(true);
        fault::FaultEngine engine(system, plan, exp::derive_seed(config.seed, i));
        if (!plan.empty()) engine.arm();
        system.run(horizon);
        if (!plan.empty()) {
          const fault::InterferenceOracle oracle(
              fault::InterferenceOracle::params_from(system));
          oracle_reports[i] = oracle.verify(system.trace());
        }
        auto out = exp::RunResult::capture(system);
        out.fill_histogram(hist_lo, hist_hi, hist_bin);
        return out;
      });

  Fig6Result result{.recorder = {},
                    .histogram = stats::Histogram(hist_lo, hist_hi, hist_bin),
                    .per_load = {},
                    .d_min = d_min,
                    .c_bh_eff = c_bh_eff,
                    .metrics = {},
                    .trace = {},
                    .trace_meta = {},
                    .trace_dropped = 0};

  // Merge in load order: cumulative statistics match the sequential run.
  for (auto& run : runs) {
    result.per_load.push_back(run.recorder);
    result.histogram.merge(*run.histogram);
    result.recorder.merge(run.recorder);
    result.tdma_switches += run.tdma_switches;
    result.interpose_switches += run.interpose_switches;
    result.deferred_switches += run.deferred_switches;
    result.denied_by_monitor += run.denied_by_monitor;
    result.lost_raises += run.lost_raises;
    result.metrics.merge(run.metrics);
    result.trace.insert(result.trace.end(), run.trace.begin(), run.trace.end());
    if (result.trace_meta.partition_names.empty()) {
      result.trace_meta = std::move(run.trace_meta);
    }
    result.trace_dropped += run.trace_dropped;
  }
  for (const auto& report : oracle_reports) {
    result.oracle_windows += report.windows_checked;
    result.oracle_violations +=
        report.violations.size() + report.cost_violations.size();
  }
  for (const auto& counter : result.metrics.counters) {
    if (counter.name.starts_with("fault/injected/")) {
      result.fault_injected += counter.value;
    }
  }
  return result;
}

void print_fig6_report(std::ostream& os, const char* title, const Fig6Config& config,
                       const Fig6Result& result) {
  os << "=== " << title << " ===\n";
  os << "T_TDMA = 14000us, T_i = 6000us, C_TH = 5us, C_BH = 40us, C'_BH = "
     << result.c_bh_eff << ", d_min = " << result.d_min << "\n";
  os << "loads:";
  for (const int l : config.load_percent) os << " " << l << "%";
  os << ", " << config.irqs_per_load << " IRQs per load\n\n";

  stats::Table table({"U_IRQ", "direct", "interposed", "delayed", "avg [us]",
                      "p99 [us]", "max [us]"});
  for (std::size_t i = 0; i < result.per_load.size(); ++i) {
    const auto& r = result.per_load[i];
    table.add_row({std::to_string(config.load_percent[i]) + "%",
                   stats::Table::num(r.fraction(stats::HandlingClass::kDirect) * 100) + "%",
                   stats::Table::num(r.fraction(stats::HandlingClass::kInterposed) * 100) + "%",
                   stats::Table::num(r.fraction(stats::HandlingClass::kDelayed) * 100) + "%",
                   stats::Table::num(r.all().mean().as_us()),
                   stats::Table::num(r.all().percentile(99).as_us()),
                   stats::Table::num(r.all().max().as_us())});
  }
  const auto& all = result.recorder;
  table.add_row({"cumulative",
                 stats::Table::num(all.fraction(stats::HandlingClass::kDirect) * 100) + "%",
                 stats::Table::num(all.fraction(stats::HandlingClass::kInterposed) * 100) + "%",
                 stats::Table::num(all.fraction(stats::HandlingClass::kDelayed) * 100) + "%",
                 stats::Table::num(all.all().mean().as_us()),
                 stats::Table::num(all.all().percentile(99).as_us()),
                 stats::Table::num(all.all().max().as_us())});
  table.write(os);

  os << "\ncontext switches: tdma " << result.tdma_switches << ", interpose "
     << result.interpose_switches << ", deferred boundaries " << result.deferred_switches
     << ", denied by monitor " << result.denied_by_monitor << ", lost raises "
     << result.lost_raises << "\n";
  if (result.fault_injected > 0 || result.oracle_windows > 0) {
    os << "fault injection: " << result.fault_injected
       << " actions; interference oracle checked " << result.oracle_windows
       << " windows, " << result.oracle_violations << " violations\n";
  }
  os << "\nlatency histogram over " << result.recorder.total() << " IRQs (100us bins):\n";
  result.histogram.write_ascii(os);
  os << "\n";
}

void export_fig6(const std::string& dir, const std::string& name, const char* title,
                 const Fig6Result& result) {
  const std::string csv = dir + "/" + name + ".csv";
  stats::write_histogram_csv(csv, result.histogram);
  stats::write_histogram_gnuplot(dir + "/" + name + ".gp", csv, title);
}

void export_fig6_observability(const Fig6Result& result, const std::string& trace_out,
                               const std::string& metrics_out) {
  if (!trace_out.empty()) {
    stats::write_chrome_trace_file(trace_out, result.trace, result.trace_meta,
                                   result.trace_dropped);
  }
  if (!metrics_out.empty()) {
    if (metrics_out.ends_with(".txt")) {
      stats::write_metrics_text_file(metrics_out, result.metrics);
    } else {
      stats::write_metrics_json_file(metrics_out, result.metrics);
    }
  }
}

}  // namespace rthv::bench
