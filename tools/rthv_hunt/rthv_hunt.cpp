// Coverage-guided adversarial campaign CLI (front-end of src/fault/hunt).
//
// Builds a system scenario (a config file or the monitored paper baseline),
// optionally weakens a source's monitor via the test-only hook, forks
// snapshots at a configurable instant and hunts for Eq. 14 oracle
// violations or latency-pathological schedules by mutating fault-plan
// parameters under coverage guidance.
//
// Usage:
//   rthv_hunt [config.ini|--baseline] [options]
// Options:
//   --seed N               campaign seed (default 1)
//   --jobs N|auto          campaign workers (default 1; same output for any N)
//   --generations N        search generations (default 8)
//   --population N         candidates per generation (default 16)
//   --horizon-ms N         simulated run length (default 100)
//   --fork-ms T            fork at t = T ms (default 10)
//   --fork-slot N          fork after the Nth TDMA slot switch
//   --fork-depth K         fork once source 0's monitor observed K events
//   --weaken DIV           weaken source 0's monitor to d_min/DIV (test hook)
//   --base-plan FILE       environment plan armed before the fork
//   --corpus FILE          seed corpus plan (repeatable)
//   --exp MEAN_US COUNT    exponential workload on source 0 (default 1444 64)
//   --event-budget N       stop after N post-fork simulated events
//   --latency-us N         latency-pathology threshold (0 = off)
//   --random               disable coverage guidance (random baseline)
//   --no-minimize          keep the raw finding unshrunk
//   --expect-finding       exit 1 when the hunt comes up empty (CI smoke)
//   --repro-out FILE       write the minimized reproducer plan
//
// A malformed --jobs/--generations/--population value (zero, negative,
// non-numeric, too large), or a negative, non-numeric or out-of-range
// --seed/--horizon-ms/--fork-ms/--fork-slot/--fork-depth/--event-budget
// value (a zero horizon included), prints the usage text and exits 2.
//
// Every finding is replayed standalone (fresh system, reproducer armed at
// t=0) before it is reported; a finding that fails to replay is a bug in
// the snapshot layer and aborts with exit 3.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config_loader.hpp"
#include "core/hypervisor_system.hpp"
#include "exp/cli.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/hunt.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;
using sim::TimePoint;

namespace {

void usage() {
  std::cerr << "usage: rthv_hunt [config.ini|--baseline] [--seed N] [--jobs N|auto]\n"
               "  [--generations N] [--population N] [--horizon-ms N]\n"
               "  [--fork-ms T | --fork-slot N | --fork-depth K] [--weaken DIV]\n"
               "  [--base-plan FILE] [--corpus FILE]... [--exp MEAN_US COUNT]\n"
               "  [--event-budget N] [--latency-us N] [--random] [--no-minimize]\n"
               "  [--expect-finding] [--repro-out FILE]\n";
}

std::int64_t parse_int(const char* flag, const char* value) {
  try {
    return std::stoll(value);
  } catch (const std::exception&) {
    std::cerr << "error: " << flag << " needs an integer, got '" << value << "'\n";
    std::exit(2);
  }
}

/// A decimal integer flag value in [min, max]; usage + exit 2 otherwise.
std::uint64_t require_uint(const char* value, std::uint64_t min = 0,
                           std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const auto n = exp::parse_uint(value, min, max);
  if (!n) {
    usage();
    std::exit(2);
  }
  return *n;
}

/// Milliseconds that still fit the nanosecond timeline.
constexpr std::uint64_t kMaxMs = std::numeric_limits<std::int64_t>::max() / 1'000'000;

/// A positive count that fits in 32 bits; usage + exit 2 otherwise.
std::uint32_t require_count(std::optional<std::size_t> value) {
  if (!value || *value > std::numeric_limits<std::uint32_t>::max()) {
    usage();
    std::exit(2);
  }
  return static_cast<std::uint32_t>(*value);
}

}  // namespace

int main(int argc, char** argv) {
  core::SystemConfig config = core::SystemConfig::paper_baseline();
  config.mode = hv::TopHandlerMode::kInterposing;
  config.sources[0].monitor = core::MonitorKind::kDeltaMin;
  config.sources[0].d_min = Duration::us(1444);

  fault::HuntConfig hunt;
  hunt.horizon = Duration::ms(100);
  hunt.fork.kind = fault::HuntForkPoint::Kind::kTime;
  hunt.fork.time = TimePoint::at_us(10'000);

  std::int64_t weaken_divisor = 0;
  std::int64_t exp_mean_us = 1444;
  std::int64_t exp_count = 64;
  bool expect_finding = false;
  std::string repro_out;

  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    try {
      config = core::load_config_file(argv[i]);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    ++i;
  } else if (i < argc && std::strcmp(argv[i], "--baseline") == 0) {
    ++i;
  }

  try {
    for (; i < argc; ++i) {
      const auto need = [&](int extra) {
        if (i + extra >= argc) {
          usage();
          std::exit(2);
        }
      };
      if (std::strcmp(argv[i], "--seed") == 0) {
        need(1);
        hunt.seed = require_uint(argv[++i]);
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        need(1);
        hunt.jobs = require_count(exp::parse_jobs(argv[++i]));
      } else if (std::strcmp(argv[i], "--generations") == 0) {
        need(1);
        hunt.generations = require_count(exp::parse_count(argv[++i]));
      } else if (std::strcmp(argv[i], "--population") == 0) {
        need(1);
        hunt.population = require_count(exp::parse_count(argv[++i]));
      } else if (std::strcmp(argv[i], "--horizon-ms") == 0) {
        need(1);
        const auto ms = static_cast<std::int64_t>(require_uint(argv[++i], 1, kMaxMs));
        hunt.horizon = Duration::ms(ms);
      } else if (std::strcmp(argv[i], "--fork-ms") == 0) {
        need(1);
        hunt.fork.kind = fault::HuntForkPoint::Kind::kTime;
        const auto ms = static_cast<std::int64_t>(require_uint(argv[++i], 0, kMaxMs));
        hunt.fork.time = TimePoint::origin() + Duration::ms(ms);
      } else if (std::strcmp(argv[i], "--fork-slot") == 0) {
        need(1);
        hunt.fork.kind = fault::HuntForkPoint::Kind::kSlotBoundary;
        hunt.fork.boundary = require_uint(argv[++i]);
      } else if (std::strcmp(argv[i], "--fork-depth") == 0) {
        need(1);
        hunt.fork.kind = fault::HuntForkPoint::Kind::kMonitorDepth;
        hunt.fork.source = 0;
        hunt.fork.depth = require_uint(argv[++i]);
      } else if (std::strcmp(argv[i], "--weaken") == 0) {
        need(1);
        weaken_divisor = parse_int("--weaken", argv[++i]);
      } else if (std::strcmp(argv[i], "--base-plan") == 0) {
        need(1);
        hunt.base_plan = fault::load_fault_plan_file(argv[++i]);
      } else if (std::strcmp(argv[i], "--corpus") == 0) {
        need(1);
        hunt.corpus.push_back(fault::load_fault_plan_file(argv[++i]));
      } else if (std::strcmp(argv[i], "--exp") == 0) {
        need(2);
        exp_mean_us = parse_int("--exp", argv[++i]);
        exp_count = parse_int("--exp", argv[++i]);
      } else if (std::strcmp(argv[i], "--event-budget") == 0) {
        need(1);
        hunt.event_budget = require_uint(argv[++i]);
      } else if (std::strcmp(argv[i], "--latency-us") == 0) {
        need(1);
        hunt.latency_threshold = Duration::us(parse_int("--latency-us", argv[++i]));
      } else if (std::strcmp(argv[i], "--random") == 0) {
        hunt.coverage_guided = false;
      } else if (std::strcmp(argv[i], "--no-minimize") == 0) {
        hunt.minimize = false;
      } else if (std::strcmp(argv[i], "--expect-finding") == 0) {
        expect_finding = true;
      } else if (std::strcmp(argv[i], "--repro-out") == 0) {
        need(1);
        repro_out = argv[++i];
      } else {
        usage();
        return 2;
      }
    }

    if (hunt.corpus.empty()) {
      // Default seed corpus: a mild flood on source 0 well above d_min; the
      // mutation loop does the rest.
      fault::InjectionSpec spec;
      spec.kind = fault::FaultKind::kFlood;
      spec.source = 0;
      spec.start = hunt.fork.time;
      spec.count = 16;
      spec.distance = config.sources.empty() || !config.sources[0].d_min.is_positive()
                          ? Duration::us(2000)
                          : config.sources[0].d_min * std::int64_t{3};
      fault::FaultPlan plan;
      plan.injections.push_back(spec);
      hunt.corpus.push_back(plan);
    }

    hunt.make_system = [&config, weaken_divisor, exp_mean_us, exp_count,
                        seed = hunt.seed] {
      auto system = std::make_unique<core::HypervisorSystem>(config);
      if (weaken_divisor > 1) {
        fault::weaken_monitor_for_test(*system, 0, weaken_divisor);
      }
      system->enable_tracing();
      if (exp_count > 0) {
        workload::ExponentialTraceGenerator gen(Duration::us(exp_mean_us), seed);
        system->attach_trace(0, gen.generate(static_cast<std::size_t>(exp_count)));
      }
      return system;
    };

    const auto result = fault::run_hunt(hunt);

    std::cout << "evaluations:    " << result.evaluations << "\n"
              << "generations:    " << result.generations_run << "\n"
              << "corpus size:    " << result.corpus_size << "\n"
              << "coverage bits:  " << result.coverage.count() << "\n"
              << "events to fork: " << result.events_to_fork << "\n"
              << "sim events:     " << result.sim_events << "\n";

    if (!result.found) {
      std::cout << "no finding.\n";
      return expect_finding ? 1 : 0;
    }

    std::cout << "FINDING at candidate " << result.reproducer.global_index
              << " after " << result.sim_events_at_find << " post-fork events\n"
              << "engine seed:    " << result.reproducer.engine_seed << "\n";
    result.report.write(std::cout);
    if (result.max_latency_ns > 0) {
      std::cout << "max latency:    " << result.max_latency_ns << " ns\n";
    }

    // A reproducer that does not replay standalone is a snapshot-layer bug.
    const auto replay = fault::replay_reproducer(hunt, result.reproducer);
    const bool latency_finding =
        hunt.latency_threshold.is_positive() &&
        result.max_latency_ns >= hunt.latency_threshold.count_ns();
    if (replay.ok() && !latency_finding) {
      std::cerr << "error: finding did not replay standalone\n";
      return 3;
    }
    std::cout << "replayed standalone: "
              << (replay.ok() ? "latency pathology" : "oracle violation") << "\n";

    if (!repro_out.empty()) {
      std::ofstream out(repro_out);
      fault::save_fault_plan(out, result.reproducer.plan);
      std::cout << "reproducer plan written to " << repro_out << "\n";
    } else {
      std::cout << "--- reproducer plan ---\n";
      fault::save_fault_plan(std::cout, result.reproducer.plan);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
