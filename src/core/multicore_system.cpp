#include "core/multicore_system.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace rthv::core {

using sim::Duration;
using sim::TimePoint;

// --- RoutedTraceDriver -------------------------------------------------------

RoutedTraceDriver::RoutedTraceDriver(sim::Simulator& origin_sim,
                                     sim::Simulator& host_sim,
                                     hw::InterruptController& host_intc,
                                     hw::IrqLine line,
                                     hw::SharedInterconnect& interconnect,
                                     std::uint32_t origin_core,
                                     std::uint32_t host_core,
                                     workload::Trace trace)
    : origin_sim_(origin_sim),
      host_sim_(host_sim),
      host_intc_(host_intc),
      line_(line),
      interconnect_(interconnect),
      origin_core_(origin_core),
      host_core_(host_core),
      trace_(std::move(trace)) {}

void RoutedTraceDriver::start() {
  assert(!started_);
  assert(!trace_.empty());
  started_ = true;
  origin_sim_.schedule_after(trace_.distance(next_++), [this] { fire(); });
}

void RoutedTraceDriver::fire() {
  ++fired_;
  const TimePoint now = origin_sim_.now();
  // The distributor message pays the interconnect's route delay, charged to
  // the *sending* core. The host core's clock is never ahead of the merged
  // frontier (the run loop always steps the globally earliest core), so the
  // latch instant is in the host's future.
  const Duration delay = interconnect_.route_delay(origin_core_, host_core_, now);
  host_sim_.schedule_at(now + delay, [this] { host_intc_.raise(line_); });
  if (next_ < trace_.size()) {
    origin_sim_.schedule_after(trace_.distance(next_++), [this] { fire(); });
  }
}

// --- MulticoreSystem ---------------------------------------------------------

MulticoreSystem::MulticoreSystem(const SystemConfig& config) : config_(config) {
  const std::uint32_t n = config_.num_cores();
  if (n == 0) {
    throw std::invalid_argument("MulticoreSystem: num_cores must be >= 1");
  }

  // Split the global config into one per-core SystemConfig: partitions (and
  // their schedule slots) follow PartitionSpec::core; each source lands on
  // its subscriber's core with the subscriber index remapped locally.
  std::vector<SystemConfig> split(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    SystemConfig& cc = split[c];
    cc.platform = config_.platform;
    cc.overheads = config_.overheads;
    cc.mode = config_.mode;
    cc.background_quantum = config_.background_quantum;
    cc.irq_queue_capacity = config_.irq_queue_capacity;
    cc.expected_pending_events = config_.expected_pending_events;
    cc.sim_horizon_hint = config_.sim_horizon_hint;
    // The per-core configs stay single-core: the shared interconnect is
    // owned here and attached to the platforms, never rebuilt per core.
  }

  part_core_.reserve(config_.partitions.size());
  part_local_.reserve(config_.partitions.size());
  for (const auto& p : config_.partitions) {
    if (p.core >= n) {
      throw std::invalid_argument("MulticoreSystem: partition '" + p.name +
                                  "' assigned to core " + std::to_string(p.core) +
                                  " of " + std::to_string(n));
    }
    part_core_.push_back(p.core);
    part_local_.push_back(
        static_cast<std::uint32_t>(split[p.core].partitions.size()));
    split[p.core].partitions.push_back(p);
  }
  for (std::uint32_t c = 0; c < n; ++c) {
    if (split[c].partitions.empty()) {
      throw std::invalid_argument("MulticoreSystem: core " + std::to_string(c) +
                                  " hosts no partition");
    }
  }

  // An explicit TDMA schedule splits by the slot's owning partition; each
  // core then cycles through its own slots in the global declaration order.
  for (const auto& s : config_.schedule) {
    if (s.partition >= config_.partitions.size()) {
      throw std::invalid_argument("schedule references an unknown partition");
    }
    split[part_core_[s.partition]].schedule.push_back(
        ScheduleSlot{part_local_[s.partition], s.length});
  }

  source_core_.reserve(config_.sources.size());
  source_local_.reserve(config_.sources.size());
  for (const auto& s : config_.sources) {
    if (s.subscriber >= config_.partitions.size()) {
      throw std::invalid_argument("IRQ source subscriber out of range");
    }
    if (s.core >= n) {
      throw std::invalid_argument("MulticoreSystem: source '" + s.name +
                                  "' originates on core " + std::to_string(s.core) +
                                  " of " + std::to_string(n));
    }
    const std::uint32_t host = part_core_[s.subscriber];
    source_core_.push_back(host);
    source_local_.push_back(
        static_cast<std::uint32_t>(split[host].sources.size()));
    IrqSourceSpec local = s;
    local.subscriber = part_local_[s.subscriber];
    split[host].sources.push_back(local);
  }

  interconnect_ = std::make_unique<hw::SharedInterconnect>(config_.interconnect);
  cores_.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    cores_.push_back(std::make_unique<HypervisorSystem>(split[c]));
    cores_.back()->platform().attach_interconnect(interconnect_.get(), c);
  }
}

void MulticoreSystem::attach_trace(std::uint32_t source_index,
                                   workload::Trace trace) {
  assert(!started_);
  if (source_index >= config_.sources.size()) {
    throw std::invalid_argument("attach_trace: source index out of range");
  }
  if (trace.empty()) return;  // nothing to drive
  expected_ += trace.size();
  const std::uint32_t host = source_core_[source_index];
  const std::uint32_t local = source_local_[source_index];
  const std::uint32_t origin = config_.sources[source_index].core;
  if (origin == host) {
    cores_[host]->attach_trace(local, std::move(trace));
    return;
  }
  // Cross-core source: the device fires on the origin core's clock and its
  // raises ride the interconnect to the subscriber core's controller.
  // Source timers occupy lines 1..N on the host core (line 0 is TDMA).
  routed_.push_back(std::make_unique<RoutedTraceDriver>(
      cores_[origin]->simulator(), cores_[host]->simulator(),
      cores_[host]->platform().intc(), local + 1, *interconnect_, origin, host,
      std::move(trace)));
}

void MulticoreSystem::enable_tracing(std::size_t capacity) {
  for (auto& c : cores_) c->enable_tracing(capacity);
}

void MulticoreSystem::keep_completions(bool on) {
  for (auto& c : cores_) c->keep_completions(on);
}

void MulticoreSystem::start() {
  assert(!started_);
  started_ = true;
  for (auto& c : cores_) c->start();
  for (auto& d : routed_) d->start();
}

std::uint64_t MulticoreSystem::run(Duration horizon) {
  if (!started_) start();
  // The merged "now" is the time reached so far: the latest per-core clock
  // (every executed event is at or before it).
  TimePoint reached = TimePoint::origin();
  for (auto& c : cores_) {
    reached = std::max(reached, c->simulator().now());
  }
  return run_continue(reached + horizon);
}

bool MulticoreSystem::idle() const {
  for (const auto& c : cores_) {
    if (!c->simulator().idle()) return false;
  }
  return true;
}

TimePoint MulticoreSystem::next_event_time() {
  TimePoint best = TimePoint::max();
  for (auto& c : cores_) {
    if (c->simulator().idle()) continue;
    best = std::min(best, c->simulator().next_event_time());
  }
  return best;
}

std::uint64_t MulticoreSystem::completed_bottom_handlers() const {
  std::uint64_t done = 0;
  for (const auto& c : cores_) done += c->completed_bottom_handlers();
  return done;
}

std::uint64_t MulticoreSystem::lost_on_routed_sources() const {
  // Raises lost to a non-counting latch never produce a bottom handler;
  // discount them so the run terminates (same rule as the single-core
  // system). All source raises -- local and routed -- latch on the
  // subscriber core's lines 1..N.
  std::uint64_t lost = 0;
  for (const auto& c : cores_) {
    for (hw::IrqLine l = 1; l <= c->config().sources.size(); ++l) {
      lost += c->platform().intc().lost_raises(l);
    }
  }
  return lost;
}

std::uint64_t MulticoreSystem::run_continue(TimePoint until) {
  assert(started_);
  const auto global_lost = [this] {
    std::uint64_t lost = 0;
    for (const auto& c : cores_) lost += c->platform().intc().lost_raises();
    return lost;
  };
  // Merge loop: always step the core whose next event is globally earliest,
  // breaking time ties by lowest core id (the (time, core, seq) order).
  // Termination mirrors HypervisorSystem::run_continue, with the cheap
  // controller-global loss counter short-circuiting the per-line scan.
  while (run_to_horizon_ || expected_ == 0 ||
         completed_bottom_handlers() + global_lost() < expected_ ||
         completed_bottom_handlers() + lost_on_routed_sources() < expected_) {
    std::uint32_t best = UINT32_MAX;
    TimePoint best_t = TimePoint::max();
    for (std::uint32_t c = 0; c < cores_.size(); ++c) {
      sim::Simulator& s = cores_[c]->simulator();
      if (s.idle()) continue;
      const TimePoint t = s.next_event_time();
      if (t < best_t) {  // strict: equal times keep the lowest core id
        best_t = t;
        best = c;
      }
    }
    if (best == UINT32_MAX || best_t > until) break;
    cores_[best]->simulator().step();
  }
  return completed_bottom_handlers();
}

stats::LatencyRecorder MulticoreSystem::merged_recorder() const {
  stats::LatencyRecorder merged;
  for (const auto& c : cores_) merged.merge(c->recorder());
  return merged;
}

obs::MetricsSnapshot MulticoreSystem::metrics_snapshot() const {
  obs::MetricsSnapshot out;
  for (std::uint32_t c = 0; c < cores_.size(); ++c) {
    const std::string prefix = "core" + std::to_string(c) + "/";
    const obs::MetricsSnapshot snap = cores_[c]->metrics_snapshot();
    for (const auto& k : snap.counters) out.add_counter(prefix + k.name, k.value);
    for (const auto& g : snap.gauges) out.set_gauge(prefix + g.name, g.value);
    for (const auto& h : snap.histograms) {
      out.histograms.push_back(h);
      out.histograms.back().name = prefix + h.name;
    }
  }
  const auto& k = interconnect_->counters();
  out.add_counter("interconnect/stall_ns", k.stall_ns_total);
  out.add_counter("interconnect/bursts_charged", k.bursts_charged);
  out.add_counter("interconnect/accesses_registered", k.accesses_registered);
  out.add_counter("interconnect/accesses_throttled", k.accesses_throttled);
  out.add_counter("interconnect/routes", k.routes);
  out.add_counter("interconnect/epochs_rolled", k.epochs_rolled);
  return out;
}

template <class Ar>
void MulticoreSystem::state(Ar& ar) {
  ar(*interconnect_);
  ar.expect(routed_.size(), "MulticoreSystem routed-driver count");
  for (auto& d : routed_) ar(*d);
  ar(expected_, run_to_horizon_, started_);
}

MulticoreSystem::Snapshot MulticoreSystem::snapshot() const {
  Snapshot snap;
  snap.cores.reserve(cores_.size());
  for (const auto& c : cores_) snap.cores.push_back(c->snapshot());

  snap.shared_words = sim::save_words(*this);
  return snap;
}

void MulticoreSystem::restore(const Snapshot& snap) {
  if (snap.cores.size() != cores_.size()) {
    throw std::logic_error("MulticoreSystem::restore: core count changed");
  }
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    cores_[c]->restore(snap.cores[c]);
  }
  sim::load_words(snap.shared_words, *this, "MulticoreSystem::restore");
}

}  // namespace rthv::core
