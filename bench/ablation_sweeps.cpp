// Ablation sweeps over the design parameters DESIGN.md calls out:
//
//  1. TDMA cycle length: the paper's motivation -- shrinking the cycle
//     reduces delayed latency but multiplies context-switch overhead;
//     interposing decouples latency from the cycle length.
//  2. d_min (the monitoring condition): tighter admission (larger d_min)
//     trades average latency for a smaller interference bound (Eq. 14).
//  3. Context-switch cost: interposing pays 2 * C_ctx per IRQ (Eq. 13), so
//     its benefit shrinks on platforms with expensive switches.
//
// Every row of every table is an independent simulation; with `--jobs N`
// the rows are sharded over N BatchRunner workers. Row seeds are fixed per
// row, results are collected in row order, so the printed tables are
// bit-identical for any job count.
//
// A seed-robustness sweep (table t7b) replicates the monitored baseline
// across 64 independent seeds on pooled, snapshot-recycled systems: every
// row above reports one seed; this sweep shows how stable those numbers
// are across seeds.
//
// With `--fault-plan PATH` an extra sweep replays the fault-injection plan
// at several campaign seeds and checks every run with the interference
// oracle (non-zero exit on any violation).
//
// usage: ablation_sweeps [--jobs N] [--fault-plan PATH] [--chunk N]
#include <iostream>
#include <vector>

#include "analysis/irq_latency.hpp"
#include "analysis/slot_table.hpp"
#include "core/analysis_facade.hpp"
#include "core/hypervisor_system.hpp"
#include "exp/batch_runner.hpp"
#include "exp/cli.hpp"
#include "exp/seed.hpp"
#include "exp/system_pool.hpp"
#include "fault/fault_engine.hpp"
#include "fault/oracle.hpp"
#include "mon/token_bucket_monitor.hpp"
#include "mon/window_count_monitor.hpp"
#include "hv/overhead_model.hpp"
#include "stats/table.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;

namespace {

struct RunOut {
  Duration avg;
  Duration max;
  std::uint64_t ctx_switches;
  double interposed_frac;
};

RunOut run(const core::SystemConfig& cfg, Duration lambda, Duration floor,
           std::size_t irqs, std::uint64_t seed) {
  core::HypervisorSystem system(cfg);
  workload::ExponentialTraceGenerator gen(lambda, seed, floor);
  system.attach_trace(0, gen.generate(irqs));
  system.run(Duration::s(600));
  return RunOut{system.recorder().all().mean(), system.recorder().all().max(),
                system.hypervisor().context_switches().total(),
                system.recorder().fraction(stats::HandlingClass::kInterposed)};
}

using Row = std::vector<std::string>;

}  // namespace

int main(int argc, char** argv) {
  const auto cli = exp::parse_cli(argc, argv);
  exp::BatchRunner runner(exp::BatchOptions{.jobs = cli.jobs, .chunk = cli.chunk});

  constexpr std::size_t kIrqs = 2000;
  auto base = core::SystemConfig::paper_baseline();
  // Single-core ablations: all partitions and sources stay on core 0 (the
  // spec default), stated explicitly now that configs carry core assignments.
  base.interconnect.num_cores = 1;
  for (auto& p : base.partitions) p.core = 0;
  for (auto& s : base.sources) s.core = 0;
  // Every sweep below runs a 600 s horizon with a small steady-state pending
  // set; the hints let the event core pre-size its slot arena and far heap
  // so no run grows tables mid-measurement.
  base.sim_horizon_hint = Duration::s(600);
  base.expected_pending_events = 128;
  const Duration c_bh_eff =
      hv::OverheadModel(base.platform, base.overheads).effective_bottom_cost(
          base.sources[0].c_bottom);
  const auto lambda = Duration::ns(c_bh_eff.count_ns() * 10);  // 10% load

  // --- 1. TDMA cycle length sweep -----------------------------------------
  std::cout << "=== Ablation 1: TDMA cycle length (10% load, conforming arrivals) ===\n";
  stats::Table t1({"cycle [us]", "unmon avg [us]", "unmon max [us]", "unmon ctx/s",
                   "interposed avg [us]", "interposed max [us]"});
  {
    const std::vector<int> scales = {1, 2, 4};
    const auto rows = runner.map(scales.size(), [&](std::size_t i) -> Row {
      auto cfg = base;
      for (auto& p : cfg.partitions) p.slot_length = p.slot_length * scales[i];
      const auto unmon = run(cfg, lambda, lambda, kIrqs, 100);
      auto mon_cfg = cfg;
      mon_cfg.mode = hv::TopHandlerMode::kInterposing;
      mon_cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
      mon_cfg.sources[0].d_min = lambda;
      const auto mon = run(mon_cfg, lambda, lambda, kIrqs, 100);
      const double span_s = static_cast<double>(kIrqs) * lambda.as_s();
      return {stats::Table::num(cfg.tdma_cycle().as_us(), 0),
              stats::Table::num(unmon.avg.as_us()), stats::Table::num(unmon.max.as_us()),
              stats::Table::num(static_cast<double>(unmon.ctx_switches) / span_s, 0),
              stats::Table::num(mon.avg.as_us()), stats::Table::num(mon.max.as_us())};
    });
    for (const auto& row : rows) t1.add_row(row);
  }
  t1.write(std::cout);
  std::cout << "expectation: unmonitored latency scales with the cycle; interposed "
               "latency does not\n\n";

  // --- 2. d_min sweep -------------------------------------------------------
  std::cout << "=== Ablation 2: monitoring distance d_min (10% load, exponential) ===\n";
  stats::Table t2({"d_min / lambda", "avg [us]", "max [us]", "interposed",
                   "interference bound / cycle [us]"});
  {
    const std::vector<double> ratios = {0.25, 0.5, 1.0, 2.0, 4.0};
    const auto rows = runner.map(ratios.size(), [&](std::size_t i) -> Row {
      const double ratio = ratios[i];
      auto cfg = base;
      cfg.mode = hv::TopHandlerMode::kInterposing;
      cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
      const auto d_min =
          Duration::ns(static_cast<std::int64_t>(static_cast<double>(lambda.count_ns()) * ratio));
      cfg.sources[0].d_min = d_min;
      const auto out = run(cfg, lambda, Duration::zero(), kIrqs, 200);
      const auto bound = analysis::interposed_interference(cfg.tdma_cycle(), d_min, c_bh_eff);
      return {stats::Table::num(ratio, 2), stats::Table::num(out.avg.as_us()),
              stats::Table::num(out.max.as_us()),
              stats::Table::num(out.interposed_frac * 100) + "%",
              stats::Table::num(bound.as_us())};
    });
    for (const auto& row : rows) t2.add_row(row);
  }
  t2.write(std::cout);
  std::cout << "expectation: smaller d_min admits more interposing (lower average) at "
               "the price of a larger Eq. 14 interference bound\n\n";

  // --- 3. context-switch cost sweep -----------------------------------------
  std::cout << "=== Ablation 3: context-switch cost (conforming, d_min = lambda) ===\n";
  stats::Table t3({"C_ctx [us]", "C'_BH [us]", "interposed avg [us]", "unmon avg [us]",
                   "speedup"});
  {
    const std::vector<std::uint64_t> instrs = {1000, 5000, 20000, 50000};
    const auto rows = runner.map(instrs.size(), [&](std::size_t i) -> Row {
      const std::uint64_t instr = instrs[i];
      auto cfg = base;
      cfg.platform.ctx_invalidate_instructions = instr;
      // One sweep value serves as both the instruction and the cycle part.
      cfg.platform.ctx_writeback_cycles = hw::Cycles{instr};
      const hv::OverheadModel oh(cfg.platform, cfg.overheads);
      const Duration eff = oh.effective_bottom_cost(cfg.sources[0].c_bottom);
      // Keep the load definition consistent with the platform's C'_BH.
      const auto lam = Duration::ns(eff.count_ns() * 10);
      auto mon_cfg = cfg;
      mon_cfg.mode = hv::TopHandlerMode::kInterposing;
      mon_cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
      mon_cfg.sources[0].d_min = lam;
      const auto mon = run(mon_cfg, lam, lam, kIrqs, 300);
      const auto unmon = run(cfg, lam, lam, kIrqs, 300);
      const double speedup = static_cast<double>(unmon.avg.count_ns()) /
                             static_cast<double>(mon.avg.count_ns());
      return {stats::Table::num(oh.context_switch_cost().as_us()),
              stats::Table::num(eff.as_us()), stats::Table::num(mon.avg.as_us()),
              stats::Table::num(unmon.avg.as_us()), stats::Table::num(speedup, 2) + "x"};
    });
    for (const auto& row : rows) t3.add_row(row);
  }
  t3.write(std::cout);
  std::cout << "expectation: the interposing benefit shrinks as context switches get "
               "more expensive (2 x C_ctx per interposed IRQ, Eq. 13)\n\n";

  // --- 4. shaper comparison: delta^- monitor vs token bucket ----------------
  std::cout << "=== Ablation 4: admission shaper (bursty arrivals, equal long-term "
               "rate) ===\n";
  stats::Table t4({"shaper", "avg [us]", "max [us]", "interposed",
                   "interference bound / cycle [us]"});
  {
    // Bursty workload: pairs of IRQs ~200us apart, bursts every ~3ms.
    workload::BurstTraceGenerator bursty(Duration::ms(3), 2, Duration::us(200), 400);
    const auto events = bursty.generate_until(Duration::s(6));
    const workload::Trace trace = workload::Trace::from_activations(events);
    const Duration interval = lambda;  // same long-term admitted rate for both

    const auto rows = runner.map(3, [&](std::size_t shaper) -> Row {
      auto cfg = base;
      cfg.mode = hv::TopHandlerMode::kInterposing;
      cfg.sources[0].d_min = interval;
      Duration bound;
      const char* label = "";
      switch (shaper) {
        case 0:
          cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
          bound = analysis::interposed_interference(cfg.tdma_cycle(), interval, c_bh_eff);
          label = "delta^- (d_min)";
          break;
        case 1:
          cfg.sources[0].monitor = core::MonitorKind::kTokenBucket;
          cfg.sources[0].bucket_depth = 2;  // admits a whole burst back-to-back
          bound = mon::token_bucket_interference(cfg.tdma_cycle(), interval, 2, c_bh_eff);
          label = "token bucket (depth 2)";
          break;
        case 2:
          // Window counter at the same long-term rate: 2 events per 2*d_min.
          cfg.sources[0].monitor = core::MonitorKind::kWindowCount;
          cfg.sources[0].d_min = interval * 2;
          cfg.sources[0].window_events = 2;
          bound = mon::window_count_interference(cfg.tdma_cycle(), interval * 2, 2,
                                                 c_bh_eff);
          label = "window counter (2 per 2*d_min)";
          break;
        default:
          break;
      }
      core::HypervisorSystem system(cfg);
      system.attach_trace(0, trace);
      system.run(Duration::s(600));
      return {label,
              stats::Table::num(system.recorder().all().mean().as_us()),
              stats::Table::num(system.recorder().all().max().as_us()),
              stats::Table::num(
                  system.recorder().fraction(stats::HandlingClass::kInterposed) *
                  100) + "%",
              stats::Table::num(bound.as_us())};
    });
    for (const auto& row : rows) t4.add_row(row);
  }
  t4.write(std::cout);
  std::cout << "expectation: the token bucket admits whole bursts (lower average on "
               "bursty traffic) but its short-window interference bound is weaker "
               "than Eq. 14 -- the paper's delta^- choice trades average latency "
               "for the tighter isolation guarantee\n\n";

  // --- 5. interfering top handlers (Eq. 9) -----------------------------------
  std::cout << "=== Ablation 5: interference from other IRQ sources' top handlers ===\n";
  stats::Table t5({"interferer rate [1/s]", "analytic interposed WCRT [us]",
                   "simulated interposed max [us]"});
  {
    const std::vector<std::int64_t> interferer_d_us_list = {0, 2000, 500, 200};
    const auto rows = runner.map(interferer_d_us_list.size(), [&](std::size_t i) -> Row {
      const std::int64_t interferer_d_us = interferer_d_us_list[i];
      auto cfg = base;
      cfg.mode = hv::TopHandlerMode::kInterposing;
      cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
      cfg.sources[0].d_min = lambda;
      std::vector<analysis::IrqSourceModel> others;
      if (interferer_d_us > 0) {
        core::IrqSourceSpec noise;
        noise.name = "noise";
        noise.subscriber = 0;  // partition 1: never the analyzed subscriber
        noise.core = 0;  // single-core sweep: device wired to the only core
        noise.c_top = Duration::us(5);
        noise.c_bottom = Duration::us(10);
        cfg.sources.push_back(noise);
        others.push_back(analysis::IrqSourceModel{
            analysis::make_sporadic(Duration::us(interferer_d_us)), noise.c_top,
            noise.c_bottom});
      }
      const core::AnalysisFacade facade(cfg);
      const auto bound = analysis::interposed_latency(
          facade.source_model(0, analysis::make_sporadic(lambda)), others,
          facade.overhead_times());

      core::HypervisorSystem system(cfg);
      system.keep_completions(true);
      workload::ExponentialTraceGenerator gen(lambda, 500, lambda);
      system.attach_trace(0, gen.generate(1000));
      if (interferer_d_us > 0) {
        workload::ExponentialTraceGenerator noise_gen(
            Duration::us(interferer_d_us), 501, Duration::us(interferer_d_us));
        system.attach_trace(1, noise_gen.generate(
            static_cast<std::size_t>(1000 * lambda.count_ns() / (interferer_d_us * 1000))));
      }
      system.run(Duration::s(600));
      Duration max_interposed = Duration::zero();
      for (const auto& rec : system.completions()) {
        if (rec.source == 0 && rec.handling == stats::HandlingClass::kInterposed) {
          max_interposed = std::max(max_interposed, rec.latency());
        }
      }
      const std::string rate_cell =
          interferer_d_us == 0
              ? std::string("none")
              : stats::Table::num(1e6 / static_cast<double>(interferer_d_us), 0);
      const std::string bound_cell =
          bound ? stats::Table::num(bound->worst_case.as_us()) : std::string("diverges");
      return {rate_cell, bound_cell, stats::Table::num(max_interposed.as_us())};
    });
    for (const auto& row : rows) t5.add_row(row);
  }
  t5.write(std::cout);
  std::cout << "expectation: other sources' top handlers add eta_j(W) * C_THj to the "
               "interposed busy window (Eq. 9/16); the analytic bound grows with the "
               "interferer rate and stays above the simulated maximum\n\n";

  // --- 6. slot splitting vs interposing --------------------------------------
  // The paper's introduction: shrinking TDMA granularity reduces latency but
  // "may significantly increase overhead". Splitting the subscriber's slot
  // into k parts is the strict-isolation alternative to interposing.
  std::cout << "=== Ablation 6: slot splitting vs interposing (strict isolation "
               "alternative) ===\n";
  stats::Table t6({"subscriber slots", "analytic delayed WCRT [us]", "sim avg [us]",
                   "sim max [us]", "ctx switches/s"});
  {
    const hv::OverheadModel oh(base.platform, base.overheads);
    const Duration entry_oh = oh.tdma_tick_cost() + oh.context_switch_cost();

    // Jobs 0..2: split schedules; job 3: the interposing reference row.
    const std::vector<std::uint32_t> parts_list = {1, 2, 4};
    const auto rows = runner.map(parts_list.size() + 1, [&](std::size_t i) -> Row {
      if (i == parts_list.size()) {
        // Interposing reference row (single-slot schedule, monitored).
        auto mon_cfg = base;
        mon_cfg.mode = hv::TopHandlerMode::kInterposing;
        mon_cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
        mon_cfg.sources[0].d_min = lambda;
        const auto mon = run(mon_cfg, lambda, lambda, kIrqs, 600);
        const double span_s = static_cast<double>(kIrqs) * lambda.as_s();
        return {"1 + interposing", "150.0 (Eq. 16)", stats::Table::num(mon.avg.as_us()),
                stats::Table::num(mon.max.as_us()),
                stats::Table::num(static_cast<double>(mon.ctx_switches) / span_s, 0)};
      }
      const std::uint32_t parts = parts_list[i];
      auto cfg = base;
      // Split every partition's slot into `parts` interleaved pieces,
      // preserving the 14000us cycle and each partition's 6000/6000/2000us
      // share.
      cfg.schedule.clear();
      for (std::uint32_t k = 0; k < parts; ++k) {
        for (std::uint32_t p = 0; p < cfg.partitions.size(); ++p) {
          cfg.schedule.push_back(core::ScheduleSlot{
              p, Duration::ns(cfg.partitions[p].slot_length.count_ns() / parts)});
        }
      }

      // Exact multi-slot analysis: subscriber is partition 1.
      std::vector<analysis::SlotTableModel::Slot> table_slots;
      for (const auto& s : cfg.schedule) {
        table_slots.push_back({s.partition == 1, s.length});
      }
      const analysis::SlotTableModel table(table_slots, entry_oh);
      analysis::BusyWindowProblem problem;
      problem.per_event_cost = cfg.sources[0].c_bottom;
      problem.interference.push_back(analysis::load_interference(
          analysis::ArrivalCurve(analysis::make_sporadic(lambda)),
          cfg.sources[0].c_top));
      problem.interference.push_back(
          [&table](Duration w) { return table.interference(w); });
      const auto bound = analysis::response_time(problem, *analysis::make_sporadic(lambda));

      const auto out = run(cfg, lambda, lambda, kIrqs, 600);
      const double span_s = static_cast<double>(kIrqs) * lambda.as_s();
      return {std::to_string(parts),
              bound ? stats::Table::num(bound->worst_case.as_us()) : "diverges",
              stats::Table::num(out.avg.as_us()), stats::Table::num(out.max.as_us()),
              stats::Table::num(static_cast<double>(out.ctx_switches) / span_s, 0)};
    });
    for (const auto& row : rows) t6.add_row(row);
  }
  t6.write(std::cout);
  std::cout << "expectation: splitting shrinks the delayed worst case roughly by the "
               "split factor but multiplies context switches; interposing reaches a "
               "far lower latency at a lower switch rate\n";

  // --- 7. seed robustness ------------------------------------------------------
  // Every table above quotes a single seed per row. This sweep replicates the
  // monitored baseline over 64 independent seeds on pooled systems recycled
  // by snapshot warm-start and reports how tight the spread is.
  {
    std::cout << "=== Ablation 7: seed robustness of the monitored baseline "
                 "(batched engine) ===\n";
    auto cfg = base;
    cfg.mode = hv::TopHandlerMode::kInterposing;
    cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
    cfg.sources[0].d_min = lambda;

    exp::SystemPool pool(cfg);
    constexpr std::size_t kReps = 64;
    const auto reps =
        runner.map(pool, kReps, [&](std::size_t i, core::HypervisorSystem& system) {
          workload::ExponentialTraceGenerator gen(lambda, 900 + i, lambda);
          system.attach_trace(0, gen.generate(kIrqs));
          system.run(Duration::s(600));
          return RunOut{system.recorder().all().mean(),
                        system.recorder().all().max(),
                        system.hypervisor().context_switches().total(),
                        system.recorder().fraction(stats::HandlingClass::kInterposed)};
        });

    auto lo = reps[0];
    auto hi = reps[0];
    double avg_sum = 0.0;
    double frac_sum = 0.0;
    for (const auto& r : reps) {
      lo.avg = std::min(lo.avg, r.avg);
      hi.avg = std::max(hi.avg, r.avg);
      lo.max = std::min(lo.max, r.max);
      hi.max = std::max(hi.max, r.max);
      avg_sum += r.avg.as_us();
      frac_sum += r.interposed_frac;
    }
    stats::Table t7b({"metric", "min", "mean over seeds", "max"});
    t7b.add_row({"avg latency [us]", stats::Table::num(lo.avg.as_us()),
                 stats::Table::num(avg_sum / static_cast<double>(kReps)),
                 stats::Table::num(hi.avg.as_us())});
    t7b.add_row({"max latency [us]", stats::Table::num(lo.max.as_us()), "-",
                 stats::Table::num(hi.max.as_us())});
    t7b.write(std::cout);
    const auto& bs = runner.stats();
    std::cout << "interposed fraction, mean over seeds: "
              << stats::Table::num(frac_sum * 100 / static_cast<double>(kReps))
              << "%\n";
    // Engine diagnostics go to stderr: chunk/steal counts depend on --jobs,
    // and stdout must stay bit-identical for any job count.
    std::cerr << "batch engine: " << bs.runs << " runs in " << bs.chunks
              << " chunks on " << bs.pool.constructed << " pooled systems ("
              << bs.pool.warm_recycles << " warm recycles, steal ratio "
              << stats::Table::num(bs.steal_ratio() * 100) << "%)\n";
    std::cout << "expectation: the per-row numbers above are representative -- the "
                 "seed-to-seed spread of the average stays within a few percent\n\n";
  }

  // --- 8. fault campaign (with --fault-plan) ---------------------------------
  // Replays the plan against the monitored baseline at several campaign
  // seeds; every run is checked by the interference oracle. Row seeds are
  // derived per row, so the table is bit-identical for any --jobs value.
  if (!cli.fault_plan.empty()) {
    std::cout << "\n=== Ablation 8: fault campaign (" << cli.fault_plan << ") ===\n";
    const auto plan = fault::load_fault_plan_file(cli.fault_plan);
    const Duration horizon =
        plan.horizon.is_positive() ? plan.horizon : Duration::s(60);
    stats::Table t7({"campaign seed", "injected", "interpositions", "windows",
                     "worst admitted/bound", "violations"});
    const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
    std::vector<std::uint64_t> row_violations(seeds.size(), 0);  // one slot per row
    const auto rows = runner.map(seeds.size(), [&](std::size_t i) -> Row {
      auto cfg = base;
      cfg.mode = hv::TopHandlerMode::kInterposing;
      cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
      cfg.sources[0].d_min = lambda;
      cfg.sim_horizon_hint = horizon;  // campaign horizon from the fault plan
      core::HypervisorSystem system(cfg);
      system.enable_tracing();
      workload::ExponentialTraceGenerator gen(lambda, 700 + i, lambda);
      system.attach_trace(0, gen.generate(kIrqs));
      fault::FaultEngine engine(system, plan, exp::derive_seed(seeds[i], 0));
      engine.arm();
      system.run(horizon);
      const fault::InterferenceOracle oracle(
          fault::InterferenceOracle::params_from(system));
      const auto report = oracle.verify(system.trace());
      const auto violations =
          report.violations.size() + report.cost_violations.size();
      row_violations[i] = violations;
      return {std::to_string(seeds[i]), std::to_string(engine.total_injected()),
              std::to_string(report.interpositions),
              std::to_string(report.windows_checked),
              stats::Table::num(report.worst_ratio, 2),
              std::to_string(violations)};
    });
    for (const auto& row : rows) t7.add_row(row);
    t7.write(std::cout);
    std::cout << "expectation: the monitor holds every admitted window within "
                 "I(dt) = ceil(dt/d_min) * C'_BH -- zero violations\n";
    for (const auto v : row_violations) {
      if (v > 0) return 1;
    }
  }
  return 0;
}
