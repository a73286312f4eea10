// Arena-pooled HypervisorSystem instances with snapshot warm-start.
//
// A batched campaign runs thousands of short, independent simulations of
// the *same* topology. Constructing a system per run costs allocations,
// string-keyed metric registration and guest/monitor assembly every time;
// the pool instead owns a small set of long-lived slots (one per
// concurrent worker), each built once -- from a config (an unstarted,
// pristine system) or by a prefix step that may also run it, e.g. to a
// hunt's fork point -- and snapshotted right after. Between runs a slot is
// recycled by restore() of its own snapshot alone: a 10k-run campaign
// does O(pool) constructions, not O(runs).
//
// Warm-start contract: HypervisorSystem::restore() is restore-in-place on
// the SAME object graph (cloned callbacks capture concrete `this`
// pointers), so every slot keeps its OWN snapshot; deterministic building
// makes the slots equivalent, and the round-trip is proven bit-identical
// by the batch differential tests. restore() drops the trace drivers a run
// attached after the snapshot and keeps the ones it recorded.
//
// Per-run settings belong to the run, not the pool: a run switches on
// keep_completions(), enable_tracing() or a FaultEngine on the leased
// system, and the next restore returns the slot to its snapshot settings.
// A FaultEngine a run creates must be destroyed before the slot is
// recycled; its destructor disarms the drift deadline transform and
// detaches the checkpoint client.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "core/system_config.hpp"

namespace rthv::exp {

class SystemPool {
  struct Slot;  // defined below; leases cache a stable pointer to one

 public:
  struct Stats {
    std::uint64_t constructed = 0;    // full system constructions
    std::uint64_t warm_recycles = 0;  // slot-snapshot restores
  };

  /// A prefix step's result: the system in the state the slot snapshots,
  /// and an owner for what its wiring references.
  struct Prefixed {
    std::unique_ptr<core::HypervisorSystem> system;
    std::shared_ptr<void> owner;  // declared after system: destroyed first
  };
  using Prefix = std::function<Prefixed()>;

  /// Slots are unstarted systems built from `config`.
  explicit SystemPool(core::SystemConfig config);
  /// Slots are built by `prefix`, called once per slot, possibly from
  /// several workers at once.
  explicit SystemPool(Prefix prefix);

  SystemPool(const SystemPool&) = delete;
  SystemPool& operator=(const SystemPool&) = delete;

  /// RAII handle on one pooled instance. A worker holds its lease for a
  /// whole campaign shard; the slot returns to the free list on destruction.
  class Lease {
   public:
    Lease() = default;

    /// Hands out the instance reset to the slot's snapshot. First use
    /// after the build skips the restore (a fresh slot *is* in that state).
    [[nodiscard]] core::HypervisorSystem& begin_run();

    [[nodiscard]] bool valid() const { return slot_ != nullptr; }

   private:
    friend class SystemPool;
    struct Return {
      SystemPool* pool;
      void operator()(Slot* slot) const { pool->release_slot(slot); }
    };
    // The Slot pointer is held here so begin_run() never touches the
    // pool's slot vector, which another worker's acquire() may be growing.
    Lease(SystemPool* pool, Slot* slot) : slot_(slot, Return{pool}) {}

    std::unique_ptr<Slot, Return> slot_;
  };

  /// Thread-safe. Reuses a free slot or builds a new one.
  [[nodiscard]] Lease acquire();

  [[nodiscard]] Stats stats() const;

 private:
  struct Slot {
    Prefixed built;
    // Snapshot of THIS instance (see warm-start contract above).
    core::HypervisorSystem::SystemSnapshot snapshot;
    bool fresh = true;  // constructed but never handed to a run
    // Relaxed: the counters are statistics, each written only by the worker
    // holding the slot's lease; atomics keep stats() data-race-free even
    // mid-campaign.
    std::atomic<std::uint64_t> warm_recycles{0};
  };

  void release_slot(Slot* slot);

  Prefix prefix_;

  mutable std::mutex mutex_;  // guards slots_ growth, free_, constructed_
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> free_;
  std::uint64_t constructed_ = 0;
};

}  // namespace rthv::exp
