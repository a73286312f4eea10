#include "exp/system_pool.hpp"

#include <utility>

namespace rthv::exp {

SystemPool::SystemPool(core::SystemConfig config)
    : prefix_([config = std::move(config)] {
        return Prefixed{std::make_unique<core::HypervisorSystem>(config), nullptr};
      }) {}

SystemPool::SystemPool(Prefix prefix) : prefix_(std::move(prefix)) {}

SystemPool::Lease SystemPool::acquire() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      Slot* slot = free_.back();
      free_.pop_back();
      return Lease(this, slot);
    }
  }
  // Built outside the lock: a prefix step may simulate for a while, and
  // workers starting together build their slots concurrently.
  auto slot = std::make_unique<Slot>();
  slot->built = prefix_();
  slot->snapshot = slot->built.system->snapshot();
  const std::lock_guard<std::mutex> lock(mutex_);
  ++constructed_;
  slots_.push_back(std::move(slot));
  return Lease(this, slots_.back().get());
}

void SystemPool::release_slot(Slot* slot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(slot);
}

core::HypervisorSystem& SystemPool::Lease::begin_run() {
  Slot& slot = *slot_;
  if (slot.fresh) {
    // A freshly built slot is already in its snapshot state -- the first
    // run is exactly a cold run.
    slot.fresh = false;
    return *slot.built.system;
  }
  slot.built.system->restore(slot.snapshot);
  slot.warm_recycles.fetch_add(1, std::memory_order_relaxed);
  return *slot.built.system;
}

SystemPool::Stats SystemPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.constructed = constructed_;
  for (const auto& slot : slots_) {
    s.warm_recycles += slot->warm_recycles.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace rthv::exp
