#include "mon/window_count_monitor.hpp"

#include <cassert>

#include "core/checked.hpp"

namespace rthv::mon {

WindowCountMonitor::WindowCountMonitor(sim::Duration window, std::uint32_t max_events)
    : window_(window), max_(max_events), admissions_(max_events) {
  assert(window_.is_positive());
  assert(max_ >= 1);
}

bool WindowCountMonitor::record_and_check(sim::TimePoint now) {
  observe_arrival(now);
  // Admit iff the max_-th most recent admission is at least `window_` old
  // (i.e. fewer than max_ admissions fall into (now - window, now]).
  bool admit = true;
  if (stored_ == max_) {
    const sim::TimePoint oldest = admissions_[next_];
    admit = now - oldest >= window_;
  }
  if (admit) {
    admissions_[next_] = now;
    next_ = (next_ + 1) % max_;
    if (stored_ < max_) ++stored_;
  }
  count(admit);
  return admit;
}

std::uint32_t WindowCountMonitor::in_window(sim::TimePoint now) const {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < stored_; ++i) {
    if (now - admissions_[i] < window_) ++n;
  }
  return n;
}

sim::Duration window_count_interference(sim::Duration dt, sim::Duration window,
                                        std::uint32_t max_events,
                                        sim::Duration effective_bottom) {
  assert(window.is_positive());
  if (!dt.is_positive()) return sim::Duration::zero();
  const std::int64_t windows = core::ceil_div(dt, window) + 1;
  return effective_bottom * (windows * max_events);
}

}  // namespace rthv::mon
