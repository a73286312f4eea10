#include "core/hypervisor_system.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "mon/learning_monitor.hpp"
#include "mon/token_bucket_monitor.hpp"
#include "mon/window_count_monitor.hpp"

namespace rthv::core {

using sim::Duration;

namespace {

std::unique_ptr<mon::ActivationMonitor> build_monitor(const IrqSourceSpec& spec) {
  switch (spec.monitor) {
    case MonitorKind::kNone:
      return nullptr;
    case MonitorKind::kDeltaMin:
      if (!spec.d_min.is_positive()) {
        throw std::invalid_argument("kDeltaMin monitor requires a positive d_min");
      }
      return std::make_unique<mon::DeltaMinMonitor>(spec.d_min);
    case MonitorKind::kDeltaVector:
      if (spec.delta_vector.empty()) {
        throw std::invalid_argument("kDeltaVector monitor requires a delta vector");
      }
      return std::make_unique<mon::DeltaVectorMonitor>(spec.delta_vector);
    case MonitorKind::kLearning:
      if (spec.learning_events == 0) {
        throw std::invalid_argument("kLearning monitor requires learning_events > 0");
      }
      return std::make_unique<mon::LearningDeltaMonitor>(
          spec.learning_depth, spec.learning_events, spec.delta_vector);
    case MonitorKind::kTokenBucket:
      if (!spec.d_min.is_positive()) {
        throw std::invalid_argument("kTokenBucket monitor requires a positive fill interval (d_min)");
      }
      return std::make_unique<mon::TokenBucketMonitor>(spec.d_min, spec.bucket_depth);
    case MonitorKind::kWindowCount:
      if (!spec.d_min.is_positive()) {
        throw std::invalid_argument("kWindowCount monitor requires a positive window (d_min)");
      }
      return std::make_unique<mon::WindowCountMonitor>(spec.d_min, spec.window_events);
  }
  throw std::logic_error("unknown MonitorKind");
}

sim::EventQueue::Config queue_config(const SystemConfig& config) {
  sim::EventQueue::Config qc;
  qc.expected_events = config.expected_pending_events;
  qc.horizon = config.sim_horizon_hint;
  return qc;
}

}  // namespace

HypervisorSystem::HypervisorSystem(const SystemConfig& config)
    : config_(config), sim_(queue_config(config_)) {
  if (config_.partitions.empty()) {
    throw std::invalid_argument("SystemConfig needs at least one partition");
  }
  platform_ = std::make_unique<hw::Platform>(sim_, config_.platform);
  hv_ = std::make_unique<hv::Hypervisor>(*platform_, config_.overheads);
  hv_->set_top_handler_mode(config_.mode);

  std::vector<hv::TdmaSlot> slots;
  for (const auto& p : config_.partitions) {
    const auto id = hv_->add_partition(p.name, config_.irq_queue_capacity);
    if (config_.schedule.empty()) {
      slots.push_back(hv::TdmaSlot{id, p.slot_length});
    }

    auto kernel = std::make_unique<guest::GuestKernel>(sim_, p.name + "-guest");
    if (p.background_load) {
      guest::GuestTaskConfig bg;
      bg.name = "background";
      bg.priority = 100;
      bg.budget = Duration::s(3600);  // effectively endless
      bg.period = Duration::zero();
      bg.quantum = config_.background_quantum;
      kernel->add_task(bg);
    }
    kernel->set_wake_callback([this, id] { hv_->notify_work_available(id); });
    hv_->set_partition_client(id, kernel.get());
    hv_->set_partition_memory(id, p.color_mask, p.mem_accesses_per_us);
    guests_.push_back(std::move(kernel));
  }
  for (const auto& s : config_.schedule) {
    if (s.partition >= config_.partitions.size()) {
      throw std::invalid_argument("schedule references an unknown partition");
    }
    slots.push_back(hv::TdmaSlot{s.partition, s.length});
  }
  hv_->set_schedule(std::move(slots));

  // IRQ lines: 0 is the TDMA timer, sources start at 1; each source gets a
  // dedicated hardware timer as its device.
  hw::IrqLine next_line = 1;
  for (const auto& s : config_.sources) {
    if (s.subscriber >= config_.partitions.size()) {
      throw std::invalid_argument("IRQ source subscriber out of range");
    }
    hv::IrqSourceConfig src;
    src.name = s.name;
    src.line = next_line++;
    src.subscriber = s.subscriber;
    src.c_top = s.c_top;
    src.c_bottom = s.c_bottom;
    src.bh_accesses = s.bh_accesses;
    // The d_min backing the delta^- admission check, for contention-aware
    // normalization -- the same extraction the interference oracle uses.
    if (s.monitor == MonitorKind::kDeltaMin) {
      src.admit_d_min = s.d_min;
    } else if (s.monitor == MonitorKind::kDeltaVector && !s.delta_vector.empty()) {
      src.admit_d_min = s.delta_vector[0];
    }
    const auto sid = hv_->add_irq_source(src);
    if (auto monitor = build_monitor(s)) {
      hv_->set_monitor(sid, std::move(monitor));
    }
    if (s.direct_delivery) hv_->set_direct_delivery(sid, true);
    platform_->add_timer(src.line);
  }

  // Queue overflow is never silent: every dropped event bumps the global
  // and per-partition counters (the hypervisor separately traces kIrqDrop
  // and reports kIrqQueueOverflow health events).
  queue_dropped_counter_ = metrics_.counter("irq_queue/dropped");
  for (hv::PartitionId p = 0; p < hv_->num_partitions(); ++p) {
    queue_dropped_by_partition_.push_back(
        metrics_.counter("irq_queue/dropped/" + hv_->partition(p).name()));
    hv_->partition(p).irq_queue().set_drop_observer(
        [this, p](const hv::IrqEvent&) {
          metrics_.add(queue_dropped_counter_);
          metrics_.add(queue_dropped_by_partition_[p]);
        });
  }

  // Latency histograms: 100 us buckets from 0 to 8.5 ms (the span of the
  // paper's Fig. 6 panels); the tail lands in the overflow bucket.
  constexpr std::int64_t kBucketWidthNs = 100'000;
  constexpr std::uint32_t kNumBuckets = 85;
  latency_all_ = metrics_.histogram("irq.latency.all", 0, kBucketWidthNs, kNumBuckets);
  completed_counter_ = metrics_.counter("irq.completed");
  for (std::size_t c = 0; c < static_cast<std::size_t>(stats::HandlingClass::kCount_);
       ++c) {
    const auto suffix =
        std::string(stats::to_string(static_cast<stats::HandlingClass>(c)));
    latency_by_class_[c] =
        metrics_.histogram("irq.latency." + suffix, 0, kBucketWidthNs, kNumBuckets);
    completed_by_class_[c] = metrics_.counter("irq.completed." + suffix);
  }

  // Materialize the TDMA timer and IPC router now: a pristine snapshot of
  // this system then has the same structure as one that has run, which is
  // what lets a pool recycle an instance by restoring its pre-start state.
  hv_->finalize_structure();

  hv_->set_completion_hook([this](const hv::CompletedIrq& rec) {
    ++completed_;
    recorder_.record(rec.handling, rec.latency());
    const auto cls = static_cast<std::size_t>(rec.handling);
    const std::int64_t latency_ns = rec.latency().count_ns();
    metrics_.add(completed_counter_);
    metrics_.add(completed_by_class_[cls]);
    metrics_.observe(latency_all_, latency_ns);
    metrics_.observe(latency_by_class_[cls], latency_ns);
    if (keep_completions_) completions_.push_back(rec);
  });
}

void HypervisorSystem::enable_tracing(std::size_t capacity) {
  auto& ring = hv_->trace_ring();
  if (ring.capacity() != capacity) ring.set_capacity(capacity);
  ring.set_enabled(true);
}

obs::MetricsSnapshot HypervisorSystem::metrics_snapshot() const {
  obs::MetricsSnapshot snap = metrics_.snapshot();

  const auto& irq = hv_->irq_stats();
  snap.add_counter("irq.serviced", irq.serviced);
  snap.add_counter("irq.direct_arrivals", irq.direct);
  snap.add_counter("irq.monitor_checked", irq.monitor_checked);
  snap.add_counter("irq.interpose_started", irq.interpose_started);
  snap.add_counter("irq.denied.monitor", irq.denied_by_monitor);
  snap.add_counter("irq.denied.engine_busy", irq.denied_engine_busy);
  snap.add_counter("irq.denied.backlog", irq.denied_backlog);
  snap.add_counter("irq.denied.guest_masked", irq.denied_guest_masked);
  snap.add_counter("irq.deferred_slot_switches", irq.deferred_slot_switches);
  snap.add_counter("irq.direct_hw", irq.direct_hw);
  snap.add_counter("irq.batches", irq.batches);
  snap.add_counter("irq.batched", irq.batched_irqs);

  const auto& ctx = hv_->context_switches();
  snap.add_counter("ctx.tdma", ctx.tdma);
  snap.add_counter("ctx.interpose_enter", ctx.interpose_enter);
  snap.add_counter("ctx.interpose_return", ctx.interpose_return);

  const auto& health = hv_->health();
  for (std::size_t k = 0; k < static_cast<std::size_t>(hv::HealthEventKind::kCount_);
       ++k) {
    const auto kind = static_cast<hv::HealthEventKind>(k);
    snap.add_counter("health." + std::string(hv::to_string(kind)),
                     health.count(kind));
  }

  std::uint64_t queue_drops = 0;
  for (hv::PartitionId p = 0; p < hv_->num_partitions(); ++p) {
    queue_drops += hv_->partition(p).irq_queue().drops();
  }
  snap.add_counter("irq_queue.drops", queue_drops);
  snap.add_counter("partition.restarts", hv_->partition_restarts());
  snap.add_counter("intc.lost_raises", platform_->intc().lost_raises());
  snap.add_counter("sim.executed_events", sim_.executed_events());
  snap.set_gauge("sim.now_ns", sim_.now().count_ns());

  // Timer-wheel internals: cascade work and far-heap population expose the
  // event core's behavior under dense campaigns without touching the trace
  // format (counters sum across sweep runs; gauges merge last-write-wins in
  // run-index order, so --jobs output stays bit-identical).
  const auto qs = sim_.queue_stats();
  snap.add_counter("sim/cascades", qs.cascades);
  snap.add_counter("sim/far_pulls", qs.far_pulls);
  snap.add_counter("sim/buckets_opened", qs.buckets_opened);
  snap.set_gauge("sim/far_heap_size", static_cast<std::int64_t>(qs.far_heap_size));
  snap.set_gauge("sim/far_heap_peak", static_cast<std::int64_t>(qs.far_heap_peak));
  return snap;
}

void HypervisorSystem::attach_trace(std::uint32_t source_index, workload::Trace trace) {
  assert(!started_);
  if (source_index >= config_.sources.size()) {
    throw std::invalid_argument("attach_trace: source index out of range");
  }
  if (trace.empty()) return;  // nothing to drive
  expected_ += trace.size();
  // Timer i belongs to source i (timers were added in source order; the
  // TDMA timer is created by the hypervisor at start() and lives behind
  // them, so source timers are index 0..N-1 here).
  drivers_.push_back(std::make_unique<TraceIrqDriver>(
      platform_->timer(source_index), std::move(trace)));
}

void HypervisorSystem::start() {
  assert(!started_);
  started_ = true;
  for (auto& g : guests_) g->start();
  for (auto& d : drivers_) d->start();
  hv_->start();
}

std::uint64_t HypervisorSystem::run(Duration horizon) {
  if (!started_) start();
  return run_continue(sim_.now() + horizon);
}

std::uint64_t HypervisorSystem::run_continue(sim::TimePoint until) {
  assert(started_);
  // Source raises lost to the non-counting IRQ latch (an already-pending
  // line swallows a raise, exactly like real IRQ flags) will never produce
  // a bottom handler; discount them so the run terminates.
  const auto lost_on_sources = [this] {
    std::uint64_t lost = 0;
    for (hw::IrqLine l = 1; l <= config_.sources.size(); ++l) {
      lost += platform_->intc().lost_raises(l);
    }
    return lost;
  };
  // With no traces attached, run to the horizon (pure guest workloads).
  // Termination check, cheapest first: the controller-global lost counter
  // over-approximates the per-source sum (it also covers line 0), so while
  // completed + global losses stay below expected the run certainly isn't
  // done and the per-line scan is skipped entirely.
  while ((run_to_horizon_ || expected_ == 0 ||
          completed_ + platform_->intc().lost_raises() < expected_ ||
          completed_ + lost_on_sources() < expected_) &&
         !sim_.idle() && sim_.now() < until) {
    sim_.step();
  }
  return completed_;
}

void HypervisorSystem::attach_checkpoint_client(CheckpointClient* client) {
  assert(client != nullptr);
  if (client_ != nullptr && client_ != client) {
    throw std::logic_error("HypervisorSystem: a checkpoint client is already attached");
  }
  client_ = client;
}

void HypervisorSystem::detach_checkpoint_client(CheckpointClient* client) {
  if (client_ == client) client_ = nullptr;
}

template <class Ar>
void HypervisorSystem::state(Ar& ar) {
  ar(*platform_);
  ar.expect(guests_.size(), "HypervisorSystem guest count");
  for (auto& g : guests_) ar(*g);
  ar.expect(drivers_.size(), "HypervisorSystem trace-driver count");
  for (auto& d : drivers_) ar(*d);
  ar(expected_, completed_, keep_completions_, run_to_horizon_, started_);
}

HypervisorSystem::SystemSnapshot HypervisorSystem::snapshot() const {
  SystemSnapshot snap;
  snap.sim = sim_.snapshot();

  snap.words = sim::save_words(*this);
  snap.hv = hv_->snapshot();
  snap.metrics = metrics_.snapshot();
  snap.recorder = recorder_;
  snap.completions = completions_;

  snap.has_client = client_ != nullptr;
  if (client_ != nullptr) snap.client_words = sim::save_words(*client_);
  snap.drivers = drivers_.size();
  return snap;
}

void HypervisorSystem::restore(const SystemSnapshot& snap) {
  if (snap.has_client != (client_ != nullptr)) {
    throw std::logic_error(
        "HypervisorSystem::restore: checkpoint-client presence changed");
  }
  if (drivers_.size() < snap.drivers) {
    throw std::logic_error(
        "HypervisorSystem::restore: fewer trace drivers than the snapshot recorded");
  }
  // Drivers attached after the snapshot belong to the run being undone;
  // destroying one unhooks its timer.
  drivers_.resize(snap.drivers);
  sim_.restore(snap.sim);

  sim::load_words(snap.words, *this, "HypervisorSystem::restore");
  hv_->restore(snap.hv);
  metrics_.restore(snap.metrics);
  recorder_ = snap.recorder;
  completions_ = snap.completions;

  // The client restores last: it may re-establish device-level decorations
  // (e.g. a clock-drift deadline transform) on the freshly restored
  // platform state.
  if (client_ != nullptr) {
    sim::load_words(snap.client_words, *client_, "HypervisorSystem::restore (checkpoint client)");
  }
}

}  // namespace rthv::core
