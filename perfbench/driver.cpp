// perfbench_driver: in-process end-to-end benchmark of the rthv simulator.
//
// Runs one named workload through the library's public API, times it on
// the host, checks every run, and prints a human-readable report followed
// by one JSON result line (the last line of stdout):
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, taken from benchmark-side spans around calls into
// each module and from the modules' public counters. README.md lists every
// metric, why each workload exists and which layer should move which
// end-to-end number.
//
// Structure of one invocation (one worker thread throughout):
//   1. warm-up: one set-up, then units for kWarmupSeconds;
//   2. the timed section, for --seconds: slots that move the thread over
//      the allowed CPUs in turn. In each slot the workload is set up (timed,
//      for setup_s) and then runs units -- repetitions of an identical,
//      seed-determined piece of work -- for at least kSlotSeconds.
// Host-time metrics are medians over the fastest quarter of the untraced
// units (of the set-ups, for setup_s). Every unit is checked, and its
// digest of simulated statistics must match the first unit's. In trace
// mode slots alternate spans off / on (bench.span_overhead compares the
// two), and a standalone monitor replay measures admission cost.
//
// usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                         --root DIR [--git-rev REV] [--smoke]
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config_loader.hpp"
#include "core/hypervisor_system.hpp"
#include "core/multicore_system.hpp"
#include "exp/batch_runner.hpp"
#include "exp/run_result.hpp"
#include "exp/seed.hpp"
#include "exp/system_pool.hpp"
#include "fault/oracle.hpp"
#include "mon/monitor.hpp"
#include "obs/metrics.hpp"
#include "stats/latency_recorder.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, the definition stats::Summary uses.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- spans -------------------------------------------------------------------

/// Layers timed by spans around public calls. Names are the metric names.
enum class Layer : std::size_t {
  kGenerate,
  kLoadConfig,
  kConstruct,
  kAttach,
  kRun,
  kEnableTracing,
  kTraceSnapshot,
  kMetricsSnapshot,
  kOracleVerify,
  kPoolSetup,
  kMerge,
  kCount_,
};
using LayerTotals = std::array<double, static_cast<std::size_t>(Layer::kCount_)>;

/// Accumulates span durations per layer. Spans are recorded only while
/// enabled, so the untimed path pays one branch per call.
class Spans {
 public:
  template <typename Fn>
  decltype(auto) time(Layer layer, Fn&& fn) {
    if (!enabled_) return fn();
    struct Stop {
      Spans& spans;
      Layer layer;
      Clock::time_point t0 = Clock::now();
      ~Stop() {
        spans.totals_[static_cast<std::size_t>(layer)] += seconds_between(t0, Clock::now());
      }
    } stop{*this, layer};
    return fn();
  }

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Totals since the last take(), then reset.
  LayerTotals take() {
    const LayerTotals out = totals_;
    totals_.fill(0.0);
    return out;
  }

 private:
  bool enabled_ = false;
  LayerTotals totals_{};
};

Spans g_spans;

template <typename Fn>
decltype(auto) span(Layer layer, Fn&& fn) {
  return g_spans.time(layer, std::forward<Fn>(fn));
}

// --- digest ------------------------------------------------------------------

/// FNV-1a over 64-bit words: a fingerprint of every simulated statistic.
class Digest {
 public:
  void word(std::uint64_t w) { h_ = (h_ ^ w) * 0x100000001b3ULL; }
  void text(std::string_view s) {
    for (const char c : s) word(static_cast<unsigned char>(c));
    word(s.size());
  }
  void samples(const stats::LatencyRecorder& rec) {
    word(rec.total());
    for (const auto d : rec.all().samples()) word(static_cast<std::uint64_t>(d.count_ns()));
  }
  void metrics(const obs::MetricsSnapshot& snap) {
    for (const auto& c : snap.counters) {
      text(c.name);
      word(c.value);
    }
    for (const auto& g : snap.gauges) {
      text(g.name);
      word(static_cast<std::uint64_t>(g.value));
    }
    for (const auto& h : snap.histograms) {
      text(h.name);
      for (const auto b : h.buckets) word(b);
      word(h.underflow);
      word(h.overflow);
      word(h.count);
      word(static_cast<std::uint64_t>(h.sum_ns));
      word(static_cast<std::uint64_t>(h.min_ns));
      word(static_cast<std::uint64_t>(h.max_ns));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

// --- per-unit results ---------------------------------------------------------

/// Work counted by the modules' public accessors, summed over a unit's runs.
struct Counts {
  std::uint64_t activations = 0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  std::uint64_t cascades = 0;
  std::uint64_t far_pulls = 0;
  std::uint64_t buckets_opened = 0;
  std::uint64_t lost_raises = 0;
  std::uint64_t serviced = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched = 0;
  std::uint64_t ctx_tdma = 0;
  std::uint64_t ctx_interpose = 0;
  std::uint64_t deferred = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t mon_admitted = 0;
  std::uint64_t mon_denied = 0;
  std::uint64_t ic_stall_ns = 0;
  std::uint64_t ic_bursts = 0;
  std::uint64_t ic_routes = 0;
  std::uint64_t ic_throttled = 0;
  std::uint64_t ic_epochs = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t oracle_windows = 0;
  std::uint64_t oracle_violations = 0;
  std::uint64_t pool_constructed = 0;
  std::uint64_t warm_recycles = 0;
  std::uint64_t chunks = 0;
  std::uint64_t steals = 0;

  /// Adds one finished system's counters.
  void add_system(const core::HypervisorSystem& sys) {
    completed += sys.completed_bottom_handlers();
    events += sys.simulator().executed_events();
    const auto qs = sys.simulator().queue_stats();
    cascades += qs.cascades;
    far_pulls += qs.far_pulls;
    buckets_opened += qs.buckets_opened;
    lost_raises += sys.platform().intc().lost_raises();
    const auto& hv = sys.hypervisor();
    const auto& irq = hv.irq_stats();
    serviced += irq.serviced;
    batches += irq.batches;
    batched += irq.batched_irqs;
    deferred += irq.deferred_slot_switches;
    ctx_tdma += hv.context_switches().tdma;
    ctx_interpose += hv.context_switches().interpose_enter + hv.context_switches().interpose_return;
    for (hv::PartitionId p = 0; p < hv.num_partitions(); ++p) {
      queue_drops += hv.partition(p).irq_queue().drops();
    }
    for (std::uint32_t s = 0; s < sys.config().sources.size(); ++s) {
      if (const auto* m = hv.monitor(s)) {
        mon_admitted += m->admitted();
        mon_denied += m->denied();
      }
    }
    trace_records += hv.trace_ring().emitted();
    trace_dropped += sys.trace_dropped();
  }
};

/// One repetition of the timed section.
struct Unit {
  std::uint64_t runs = 0;
  std::uint64_t failed_runs = 0;
  std::vector<double> run_us;     // host time per run
  std::vector<double> recycle_ns; // exp: gap between consecutive run bodies
  stats::LatencyRecorder latency; // merged over the unit's runs
  Digest digest;
  Counts counts;
};

/// The accounting identity every run must satisfy: each attached
/// activation either completed its bottom handler, was lost to an
/// already-latched line (modelled), or was dropped by a full queue.
bool accounted(std::uint64_t activations, const Counts& before, const Counts& after) {
  return (after.completed - before.completed) + (after.lost_raises - before.lost_raises) +
             (after.queue_drops - before.queue_drops) ==
         activations;
}

// --- workloads ----------------------------------------------------------------

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// One complete set-up. Call release() first to drop the previous one.
  virtual void setup() = 0;
  /// Frees what setup() built, so that set-up timing excludes tear-down.
  virtual void release() {}
  /// One repetition of the timed section; identical work on every call.
  virtual Unit run_unit() = 0;
  /// Number of arrival streams in one unit, and stream i's activation
  /// trace: a pure function of the seed and i.
  [[nodiscard]] virtual std::size_t streams() const = 0;
  [[nodiscard]] virtual workload::Trace stream(std::size_t i) const = 0;
  /// Text that fixes the workload's inputs apart from the seed.
  [[nodiscard]] virtual std::string describe() const = 0;
  [[nodiscard]] virtual const core::SystemConfig& config() const = 0;
};

core::SystemConfig load_config(const std::string& path) {
  return span(Layer::kLoadConfig, [&] { return core::load_config_file(path); });
}

Duration monitored_d_min(const core::SystemConfig& config) {
  if (config.sources.empty() || config.sources[0].monitor != core::MonitorKind::kDeltaMin) {
    throw std::runtime_error("workload config must monitor source 0 with delta_min");
  }
  return config.sources[0].d_min;
}

/// Fig. 6b system (configs/paper_baseline.ini: interposing, delta^-min
/// monitor at d_min = 1444 us), one long exponential stream per IRQ load.
/// 50 000 IRQs keep a stream's trace and latency samples (about 1.2 MB)
/// inside a core's 2 MB L2. With 500 000 they spill to the shared L3, where
/// the host's neighbours widened the run-to-run spread of irqs_per_s
/// (IQR / median) from 0.12 to 0.20 on the machines this was tuned on.
class Fig6bStream final : public Workload {
 public:
  Fig6bStream(std::string root, std::uint64_t seed, bool smoke)
      : path_(std::move(root) + "/configs/paper_baseline.ini"),
        seed_(seed),
        irqs_(smoke ? 2'000 : 50'000) {}

  void setup() override {
    config_ = load_config(path_);
    (void)monitored_d_min(config_);
    for (std::size_t i = 0; i < kLambdaUs.size(); ++i) {
      workload::Trace trace = span(Layer::kGenerate, [&] { return stream(i); });
      auto system = span(Layer::kConstruct,
                         [&] { return std::make_unique<core::HypervisorSystem>(config_); });
      span(Layer::kAttach, [&] { system->attach_trace(0, std::move(trace)); });
      pristine_.push_back(span(Layer::kConstruct, [&] {
        return std::make_unique<core::HypervisorSystem::SystemSnapshot>(system->snapshot());
      }));
      systems_.push_back(std::move(system));
    }
  }

  Unit run_unit() override {
    Unit unit;
    for (std::size_t i = 0; i < systems_.size(); ++i) {
      const auto t0 = Clock::now();
      ++unit.runs;
      core::HypervisorSystem& sys = *systems_[i];
      try {
        sys.restore(*pristine_[i]);
        span(Layer::kRun, [&] { return sys.run(kHorizon); });
        const Counts before = unit.counts;
        unit.counts.add_system(sys);
        unit.counts.activations += irqs_;
        if (!accounted(irqs_, before, unit.counts)) ++unit.failed_runs;
        const auto snap = span(Layer::kMetricsSnapshot, [&] { return sys.metrics_snapshot(); });
        span(Layer::kMerge, [&] { unit.latency.merge(sys.recorder()); });
        unit.digest.samples(sys.recorder());
        unit.digest.metrics(snap);
      } catch (const std::exception& e) {
        std::cerr << "run " << i << " failed: " << e.what() << "\n";
        ++unit.failed_runs;
      }
      unit.run_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    return unit;
  }

  void release() override {
    systems_.clear();
    pristine_.clear();
  }

  [[nodiscard]] std::size_t streams() const override { return kLambdaUs.size(); }
  [[nodiscard]] workload::Trace stream(std::size_t i) const override {
    workload::ExponentialTraceGenerator gen(Duration::us(kLambdaUs[i]), exp::derive_seed(seed_, i));
    return gen.generate(irqs_);
  }

  [[nodiscard]] std::string describe() const override {
    return "fig6b_stream irqs=" + std::to_string(irqs_) +
           " lambda_us=14440,2888,1444 seeds=derive_seed(seed,i)";
  }
  [[nodiscard]] const core::SystemConfig& config() const override { return config_; }

 private:
  // U_IRQ = 1, 5, 10 % of C'_BH = 144.4 us.
  static constexpr std::array<std::int64_t, 3> kLambdaUs = {14440, 2888, 1444};
  static constexpr Duration kHorizon = Duration::s(1'000'000);

  std::string path_;
  std::uint64_t seed_;
  std::size_t irqs_;
  core::SystemConfig config_;
  std::vector<std::unique_ptr<core::HypervisorSystem>> systems_;
  std::vector<std::unique_ptr<core::HypervisorSystem::SystemSnapshot>> pristine_;
};

/// The shape of configs/batch_fig6b_1k.json: monitored baseline with
/// lambda = d_min = 444 us, 10 IRQs per run, on the pooled warm-start
/// engine with one worker. Run i is seeded derive_seed(seed, i) rather than
/// seed + i, so that two benchmark seeds share no run.
class BatchCampaign final : public Workload {
 public:
  BatchCampaign(std::string root, std::uint64_t seed, bool smoke)
      : path_(std::move(root) + "/configs/paper_baseline.ini"),
        seed_(seed),
        runs_(smoke ? 40 : 1'000) {}

  void setup() override {
    config_ = load_config(path_);
    (void)monitored_d_min(config_);
    config_.sources[0].d_min = kLambda;
    config_.sim_horizon_hint = kHorizon;
    config_.expected_pending_events = 128;
    span(Layer::kPoolSetup, [&] {
      pool_ = std::make_unique<exp::SystemPool>(config_);
      (void)pool_->acquire();  // builds the slot and its pristine snapshot
    });
  }

  Unit run_unit() override {
    struct RunOut {
      exp::RunResult result;
      bool ok = false;
      double us = 0.0;
    };
    Unit unit;
    const bool traced = g_spans.enabled();
    Clock::time_point last_return{};
    bool have_last = false;
    exp::BatchRunner runner(exp::BatchOptions{.jobs = 1, .chunk = 16});
    const auto recycled_before = pool_->stats().warm_recycles;
    auto results = runner.map(*pool_, runs_, [&](std::size_t i, core::HypervisorSystem& sys) {
      const auto t0 = Clock::now();
      if (traced && have_last) {
        unit.recycle_ns.push_back(seconds_between(last_return, t0) * 1e9);
      }
      RunOut out;
      try {
        workload::Trace trace = span(Layer::kGenerate, [&] { return stream(i); });
        span(Layer::kAttach, [&] { sys.attach_trace(0, std::move(trace)); });
        span(Layer::kRun, [&] { return sys.run(kHorizon); });
        const Counts before = unit.counts;
        unit.counts.add_system(sys);
        unit.counts.activations += kIrqs;
        out.ok = accounted(kIrqs, before, unit.counts);
        out.result = exp::RunResult::capture(sys);
      } catch (const std::exception& e) {
        std::cerr << "run " << i << " failed: " << e.what() << "\n";
      }
      last_return = Clock::now();
      have_last = true;
      out.us = seconds_between(t0, last_return) * 1e6;
      return out;
    });
    exp::RunResult merged;
    span(Layer::kMerge, [&] {
      for (auto& r : results) merged.merge(std::move(r.result));
    });
    for (const auto& r : results) {
      ++unit.runs;
      if (!r.ok) ++unit.failed_runs;
      unit.run_us.push_back(r.us);
    }
    unit.digest.samples(merged.recorder);
    unit.digest.metrics(merged.metrics);
    unit.latency = std::move(merged.recorder);
    const auto& st = runner.stats();
    unit.counts.pool_constructed = st.pool.constructed;
    unit.counts.warm_recycles = st.pool.warm_recycles - recycled_before;
    unit.counts.chunks = st.chunks;
    unit.counts.steals = st.steals;
    return unit;
  }

  void release() override { pool_.reset(); }

  [[nodiscard]] std::size_t streams() const override { return runs_; }
  [[nodiscard]] workload::Trace stream(std::size_t i) const override {
    workload::ExponentialTraceGenerator gen(kLambda, exp::derive_seed(seed_, i));
    return gen.generate(kIrqs);
  }

  [[nodiscard]] std::string describe() const override {
    return "batch_campaign runs=" + std::to_string(runs_) + " irqs=" + std::to_string(kIrqs) +
           " lambda_us=444 d_min_us=444 jobs=1 chunk=16 warm_start seeds=derive_seed(seed,i)";
  }
  [[nodiscard]] const core::SystemConfig& config() const override { return config_; }

 private:
  static constexpr Duration kLambda = Duration::us(444);
  static constexpr Duration kHorizon = Duration::ms(1'000'000);
  static constexpr std::size_t kIrqs = 10;

  std::string path_;
  std::uint64_t seed_;
  std::size_t runs_;
  core::SystemConfig config_;
  std::unique_ptr<exp::SystemPool> pool_;
};

/// configs/multicore_mixed_crit.ini: 4 cores on a shared interconnect with
/// a MemGuard budget. Each run builds a fresh MulticoreSystem with tracing
/// on, drives the RT source with an exponential 1444 us stream and replays
/// core 0's trace through the interference oracle.
class MulticoreTraced final : public Workload {
 public:
  MulticoreTraced(std::string root, std::uint64_t seed, bool smoke)
      : path_(std::move(root) + "/configs/multicore_mixed_crit.ini"),
        seed_(seed),
        runs_(smoke ? 3 : 100),
        irqs_(smoke ? 200 : 2'000) {}

  void setup() override {
    config_ = load_config(path_);
    (void)monitored_d_min(config_);
    if (config_.num_cores() < 2) throw std::runtime_error("multicore config has one core");
  }

  Unit run_unit() override {
    Unit unit;
    for (std::size_t i = 0; i < runs_; ++i) {
      const auto t0 = Clock::now();
      ++unit.runs;
      try {
        workload::Trace trace = span(Layer::kGenerate, [&] { return stream(i); });
        auto mc = span(Layer::kConstruct,
                       [&] { return std::make_unique<core::MulticoreSystem>(config_); });
        span(Layer::kEnableTracing, [&] { mc->enable_tracing(); });
        span(Layer::kAttach, [&] { mc->attach_trace(0, std::move(trace)); });
        span(Layer::kRun, [&] { return mc->run(kHorizon); });

        const auto events = span(Layer::kTraceSnapshot, [&] { return mc->core(0).trace(); });
        const auto report = span(Layer::kOracleVerify, [&] {
          const fault::InterferenceOracle oracle(
              fault::InterferenceOracle::params_from(mc->core(0)));
          return oracle.verify(events);
        });
        const auto snap = span(Layer::kMetricsSnapshot, [&] { return mc->metrics_snapshot(); });
        const Counts before = unit.counts;
        for (std::uint32_t c = 0; c < mc->num_cores(); ++c) unit.counts.add_system(mc->core(c));
        unit.counts.activations += irqs_;
        const auto& ic = mc->interconnect().counters();
        unit.counts.ic_stall_ns += ic.stall_ns_total;
        unit.counts.ic_bursts += ic.bursts_charged;
        unit.counts.ic_routes += ic.routes;
        unit.counts.ic_throttled += ic.accesses_throttled;
        unit.counts.ic_epochs += ic.epochs_rolled;
        unit.counts.oracle_windows += report.windows_checked;
        unit.counts.oracle_violations += report.violations.size() + report.cost_violations.size();
        const bool ok = accounted(irqs_, before, unit.counts) && report.ok() &&
                        unit.counts.trace_dropped == before.trace_dropped;
        if (!ok) ++unit.failed_runs;

        const auto recorder = span(Layer::kMerge, [&] {
          auto merged = mc->merged_recorder();
          unit.latency.merge(merged);
          return merged;
        });
        unit.digest.samples(recorder);
        unit.digest.metrics(snap);
      } catch (const std::exception& e) {
        std::cerr << "run " << i << " failed: " << e.what() << "\n";
        ++unit.failed_runs;
      }
      unit.run_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    return unit;
  }

  [[nodiscard]] std::size_t streams() const override { return runs_; }
  [[nodiscard]] workload::Trace stream(std::size_t i) const override {
    workload::ExponentialTraceGenerator gen(kLambda, exp::derive_seed(seed_, i));
    return gen.generate(irqs_);
  }

  [[nodiscard]] std::string describe() const override {
    return "multicore_traced runs=" + std::to_string(runs_) + " irqs=" + std::to_string(irqs_) +
           " lambda_us=1444 source=0 oracle=core0 seeds=derive_seed(seed,i)";
  }
  [[nodiscard]] const core::SystemConfig& config() const override { return config_; }

 private:
  static constexpr Duration kLambda = Duration::us(1444);
  static constexpr Duration kHorizon = Duration::s(1'000'000);

  std::string path_;
  std::uint64_t seed_;
  std::size_t runs_;
  std::size_t irqs_;
  core::SystemConfig config_;
};

// --- provenance ------------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  std::array<unsigned, 12> regs{};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs.data(), 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

std::string build_warning() {
  std::string w;
#ifndef __OPTIMIZE__
  w += "unoptimized ";
#endif
  if (std::string_view(PERFBENCH_BUILD_TYPE) == "Debug") w += "Debug ";
  if (PERFBENCH_SANITIZE) w += "sanitizer ";
  return w.empty() ? "" : "WARNING: " + w + "build, timings are not comparable";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// --- driver --------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string root;
  std::string git_rev = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload fig6b_stream|batch_campaign|multicore_traced"
               " --seed N --seconds S --trace 0|1 --root DIR [--git-rev REV] [--smoke]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(a));
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
        have_seconds = o.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (a == "--root") {
        o.root = v;
      } else if (a == "--git-rev") {
        o.git_rev = v;
      } else {
        usage("unknown option " + std::string(a));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(a));
    }
  }
  if (o.workload.empty() || o.root.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0), --trace and --root are required");
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "fig6b_stream") return std::make_unique<Fig6bStream>(o.root, o.seed, o.smoke);
  if (o.workload == "batch_campaign") {
    return std::make_unique<BatchCampaign>(o.root, o.seed, o.smoke);
  }
  if (o.workload == "multicore_traced") {
    return std::make_unique<MulticoreTraced>(o.root, o.seed, o.smoke);
  }
  usage("unknown workload " + o.workload);
}

constexpr double kWarmupSeconds = 0.5;
constexpr double kSlotSeconds = 0.1;

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(static_cast<int>(c));
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

/// Moves the (single) worker thread to `cpu`. On a shared host the CPUs run
/// at different speeds depending on what their neighbours do; timing one
/// unit on each CPU in turn keeps the placement the scheduler happened to
/// pick out of the result. -1 leaves the placement alone.
void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median of one layer's per-repetition totals, over the repetitions in
/// which the layer did any work (0 when it never ran).
double layer_median(const std::vector<LayerTotals>& reps, Layer layer) {
  std::vector<double> v;
  for (const auto& r : reps) {
    const double t = r[static_cast<std::size_t>(layer)];
    if (t > 0.0) v.push_back(t);
  }
  return median(v);
}

/// ns per record_and_check of a standalone delta^-min monitor fed the
/// unit's own arrival streams.
double monitor_replay_ns(const Workload& w) {
  const Duration d_min = monitored_d_min(w.config());
  std::vector<std::vector<sim::TimePoint>> streams;
  for (std::size_t i = 0; i < w.streams(); ++i) streams.push_back(w.stream(i).activation_times());
  std::uint64_t checks = 0;
  std::uint64_t admitted = 0;
  std::vector<double> per_pass;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    for (const auto& stream : streams) {
      mon::DeltaMinMonitor monitor(d_min);
      for (const auto t : stream) admitted += monitor.record_and_check(t) ? 1u : 0u;
    }
    per_pass.push_back(seconds_between(t0, Clock::now()));
    if (pass == 0) {
      for (const auto& stream : streams) checks += stream.size();
    }
  }
  if (admitted == 0) throw std::runtime_error("monitor replay admitted nothing");
  return ratio(median(per_pass) * 1e9, static_cast<double>(checks));
}

/// Host-time sample of one unit.
struct UnitTiming {
  double irq_rate = 0.0;  // completed bottom handlers per host second
  double run_rate = 0.0;  // runs per host second
  double run_us_p50 = 0.0;
  double run_us_p99 = 0.0;
};

/// The fastest quarter of `v` (by `key`, higher = faster). Other tenants of
/// a shared host only ever add time: on the 4-vCPU machines this benchmark
/// was tuned on, a CPU whose physical core a neighbour was busy on ran units
/// 1.5-2x slower for stretches of 0.1 s to seconds, and which CPUs were hit
/// changed from one second to the next. The fastest quarter is the sample
/// least disturbed by them; its median is what the benchmark reports.
template <typename T, typename Key>
std::vector<T> fastest_quarter(std::vector<T> v, Key key) {
  std::sort(v.begin(), v.end(), [&](const T& a, const T& b) { return key(a) > key(b); });
  v.resize((v.size() + 3) / 4);
  return v;
}

template <typename T, typename Get>
double median_of(const std::vector<T>& v, Get get) {
  std::vector<double> x;
  x.reserve(v.size());
  for (const auto& e : v) x.push_back(get(e));
  return median(std::move(x));
}

int run(const Options& o) {
  auto w = make_workload(o);
  const std::vector<int> cpus = allowed_cpus();

  // Every unit is checked; the first one's digest is the reference the
  // others must match, and its statistics are the ones reported.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched_units = 0;
  std::size_t unit_count = 0;
  std::uint64_t runs_per_unit = 0;
  std::uint64_t first_digest = 0;
  stats::LatencyRecorder latency;
  Counts counts;
  const auto check = [&](Unit& u) {
    attempted += u.runs;
    failed += u.failed_runs;
    if (unit_count == 0) {
      first_digest = u.digest.value();
      latency = std::move(u.latency);
      counts = u.counts;
    } else if (u.digest.value() != first_digest) {
      ++mismatched_units;
      failed += u.runs - u.failed_runs;
    }
    ++unit_count;
    runs_per_unit = u.runs;
  };

  // 1. Warm-up: caches, allocators and the CPU clocks settle before anything
  // is timed. Its units are checked like all others.
  w->setup();
  const auto warm_start = Clock::now();
  for (std::size_t k = 0;
       k == 0 || (!o.smoke && seconds_between(warm_start, Clock::now()) < kWarmupSeconds); ++k) {
    pin_to(cpus[k % cpus.size()]);
    Unit u = w->run_unit();
    check(u);
  }

  // 2. Timed section, in slots that visit the allowed CPUs in turn. In each
  // slot the workload is set up twice -- the second set-up is timed, the
  // first brings that CPU's caches up to date -- and then runs units for at
  // least kSlotSeconds. In trace mode slots alternate untraced / traced,
  // shifted by one every round so that each CPU runs both, and every timed
  // set-up records its spans.
  std::vector<double> setup_s;
  std::vector<LayerTotals> layer_reps;
  std::vector<UnitTiming> untraced;
  std::vector<UnitTiming> traced;
  std::vector<double> recycle_ns;
  std::vector<double> ns_per_event;
  const std::size_t n = cpus.size();
  const auto start = Clock::now();
  for (std::size_t k = 0; k < 2 || seconds_between(start, Clock::now()) < o.seconds; ++k) {
    const bool tracing = o.trace && (k / n + k % n) % 2 == 1;
    pin_to(cpus[k % n]);
    w->release();
    w->setup();
    w->release();
    g_spans.set_enabled(o.trace);
    const auto t_setup = Clock::now();
    w->setup();
    setup_s.push_back(seconds_between(t_setup, Clock::now()));
    layer_reps.push_back(g_spans.take());

    g_spans.set_enabled(tracing);
    const auto slot_start = Clock::now();
    do {
      const auto t0 = Clock::now();
      Unit u = w->run_unit();
      const double s = seconds_between(t0, Clock::now());
      const UnitTiming timing{
          .irq_rate = ratio(static_cast<double>(u.counts.completed), s),
          .run_rate = ratio(static_cast<double>(u.runs), s),
          .run_us_p50 = percentile(u.run_us, 50),
          .run_us_p99 = percentile(u.run_us, 99)};
      (tracing ? traced : untraced).push_back(timing);
      if (tracing) {
        const LayerTotals totals = g_spans.take();
        layer_reps.push_back(totals);
        ns_per_event.push_back(ratio(totals[static_cast<std::size_t>(Layer::kRun)] * 1e9,
                                     static_cast<double>(u.counts.events)));
        recycle_ns.insert(recycle_ns.end(), u.recycle_ns.begin(), u.recycle_ns.end());
      }
      check(u);
    } while (!o.smoke && seconds_between(slot_start, Clock::now()) < kSlotSeconds);
  }
  g_spans.set_enabled(false);

  const auto fastest = fastest_quarter(untraced, [](const UnitTiming& t) { return t.irq_rate; });
  const auto irq_rate = [](const UnitTiming& t) { return t.irq_rate; };
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;
  const auto& lat = latency.all();
  const auto lat_us = [&](double p) { return lat.empty() ? 0.0 : lat.percentile(p).as_us(); };

  std::vector<Metric> e2e = {
      {"irqs_per_s", median_of(fastest, irq_rate), "1/s"},
      {"runs_per_s", median_of(fastest, [](const UnitTiming& t) { return t.run_rate; }), "1/s"},
      {"run_us_p50", median_of(fastest, [](const UnitTiming& t) { return t.run_us_p50; }), "us"},
      {"run_us_p99", median_of(fastest, [](const UnitTiming& t) { return t.run_us_p99; }), "us"},
      {"setup_s", median(fastest_quarter(setup_s, [](double t) { return -t; })), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"sim_latency_mean_us", lat.empty() ? 0.0 : lat.mean().as_us(), "us"},
      {"sim_latency_p99_us", lat_us(99), "us"},
      {"sim_latency_max_us", lat.empty() ? 0.0 : lat.max().as_us(), "us"},
  };

  std::vector<Metric> layers;
  if (o.trace) {
    const auto L = [&](Layer l) { return layer_median(layer_reps, l); };
    const auto c = [](std::uint64_t v) { return static_cast<double>(v); };
    const double checked = c(counts.mon_admitted + counts.mon_denied);
    layers = {
        {"workload.generate_s", L(Layer::kGenerate), "s"},
        {"workload.activations", c(counts.activations), "count"},
        {"core.load_config_s", L(Layer::kLoadConfig), "s"},
        {"core.construct_s", L(Layer::kConstruct), "s"},
        {"core.attach_s", L(Layer::kAttach), "s"},
        {"core.run_s", L(Layer::kRun), "s"},
        {"sim.events", c(counts.events), "count"},
        {"sim.events_per_irq", ratio(c(counts.events), c(counts.completed)), "ratio"},
        {"sim.cascades", c(counts.cascades), "count"},
        {"sim.far_pulls", c(counts.far_pulls), "count"},
        {"sim.buckets_opened", c(counts.buckets_opened), "count"},
        {"sim.host_ns_per_event", median(ns_per_event), "ns"},
        {"hw.lost_raises", c(counts.lost_raises), "count"},
        {"hw.interconnect.stall_ns", c(counts.ic_stall_ns), "ns"},
        {"hw.interconnect.bursts", c(counts.ic_bursts), "count"},
        {"hw.interconnect.routes", c(counts.ic_routes), "count"},
        {"hw.interconnect.throttled", c(counts.ic_throttled), "count"},
        {"hw.interconnect.epochs", c(counts.ic_epochs), "count"},
        {"hv.irqs_serviced", c(counts.serviced), "count"},
        {"hv.irq_batches", c(counts.batches), "count"},
        {"hv.batched_irqs", c(counts.batched), "count"},
        {"hv.ctx_tdma", c(counts.ctx_tdma), "count"},
        {"hv.ctx_interpose", c(counts.ctx_interpose), "count"},
        {"hv.deferred_slot_switches", c(counts.deferred), "count"},
        {"hv.queue_drops", c(counts.queue_drops), "count"},
        {"mon.checked", checked, "count"},
        {"mon.admitted", c(counts.mon_admitted), "count"},
        {"mon.denied", c(counts.mon_denied), "count"},
        {"mon.admit_ratio", ratio(c(counts.mon_admitted), checked), "ratio"},
        {"mon.replay_ns_per_check", monitor_replay_ns(*w), "ns"},
        {"obs.enable_tracing_s", L(Layer::kEnableTracing), "s"},
        {"obs.trace_records", c(counts.trace_records), "count"},
        {"obs.trace_dropped", c(counts.trace_dropped), "count"},
        {"obs.records_per_irq", ratio(c(counts.trace_records), c(counts.completed)), "ratio"},
        {"obs.trace_snapshot_s", L(Layer::kTraceSnapshot), "s"},
        {"obs.metrics_snapshot_s", L(Layer::kMetricsSnapshot), "s"},
        {"fault.oracle_verify_s", L(Layer::kOracleVerify), "s"},
        {"fault.oracle_windows", c(counts.oracle_windows), "count"},
        {"fault.oracle_violations", c(counts.oracle_violations), "count"},
        {"exp.pool_setup_s", L(Layer::kPoolSetup), "s"},
        {"exp.recycle_ns_p50", percentile(recycle_ns, 50), "ns"},
        {"exp.recycle_ns_p99", percentile(recycle_ns, 99), "ns"},
        {"exp.pool_constructed", c(counts.pool_constructed), "count"},
        {"exp.warm_recycles", c(counts.warm_recycles), "count"},
        {"exp.chunks", c(counts.chunks), "count"},
        {"exp.steals", c(counts.steals), "count"},
        {"stats.merge_s", L(Layer::kMerge), "s"},
        {"bench.span_overhead",
         ratio(median_of(fastest, irq_rate),
               median_of(fastest_quarter(traced, irq_rate), irq_rate)) - 1.0,
         "ratio"},
    };
  }

  // Report.
  std::ostringstream cfg_text;
  core::save_config(cfg_text, w->config());
  Digest cfg_hash;
  cfg_hash.text(cfg_text.str());
  cfg_hash.text(w->describe());
  const std::string warning = build_warning();
  std::cout << "perfbench " << o.workload << " seed " << o.seed << (o.smoke ? " (smoke)" : "")
            << (o.trace ? " traced" : "") << "\n";
  std::cout << "provenance: {\"git_rev\": " << json_string(o.git_rev)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(__VERSION__)
            << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"cpu\": " << json_string(cpu_model()) << ", \"seed\": " << o.seed
            << ", \"workload\": " << json_string(w->describe())
            << ", \"config_hash\": " << json_string(hex(cfg_hash.value()))
            << ", \"build_warning\": " << json_string(warning) << "}\n";
  if (!warning.empty()) std::cerr << warning << "\n";
  std::cout << "units: " << unit_count << " of " << runs_per_unit
            << " runs; host-time metrics from " << fastest.size() << " of " << untraced.size()
            << " timed untraced units ("
            << fastest.size() * runs_per_unit << " runs), setup_s from " << setup_s.size()
            << " set-ups; " << lat.count() << " latency samples per unit\n";
  std::cout << "digest: " << hex(first_digest)
            << (mismatched_units == 0 ? " (identical in every unit)"
                                      : " MISMATCH in " + std::to_string(mismatched_units) +
                                            " unit(s)")
            << "\n";
  std::cout << "fail_ratio: " << json_number(ratio(static_cast<double>(failed),
                                                   static_cast<double>(attempted)))
            << " (" << failed << " of " << attempted << " runs)\n";
  const auto print = [](const Metric& m) {
    std::cout << "  " << m.name << " " << json_number(m.value) << " " << m.unit << "\n";
  };
  for (const auto& m : e2e) print(m);
  // The median is the constant direct-path latency on two workloads, so it
  // is reported here rather than as a metric.
  print({"sim_latency_p50_us (printed only)", lat_us(50), "us"});
  for (const auto& m : layers) print(m);

  const auto& shown = o.trace ? layers : e2e;
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(shown[i].name) << ": {\"value\": "
              << json_number(shown[i].value) << ", \"unit\": " << json_string(shown[i].unit)
              << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
