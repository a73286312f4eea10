#include "mon/token_bucket_monitor.hpp"

#include <algorithm>
#include <cassert>

#include "core/checked.hpp"

namespace rthv::mon {

TokenBucketMonitor::TokenBucketMonitor(sim::Duration fill_interval, std::uint32_t depth)
    : fill_interval_(fill_interval), depth_(depth), tokens_(depth) {
  assert(fill_interval_.is_positive());
  assert(depth_ >= 1);
}

void TokenBucketMonitor::refill(sim::TimePoint now) {
  if (!started_) {
    started_ = true;
    last_refill_ = now;
    return;
  }
  assert(now >= last_refill_);
  const std::int64_t accrued = (now - last_refill_) / fill_interval_;
  if (accrued > 0) {
    tokens_ = static_cast<std::uint32_t>(
        std::min<std::int64_t>(depth_, tokens_ + accrued));
    // Advance by whole intervals only, so fractional accrual carries over.
    last_refill_ += fill_interval_ * accrued;
  }
}

std::uint32_t TokenBucketMonitor::tokens_at(sim::TimePoint now) const {
  if (!started_) return tokens_;
  const std::int64_t accrued = (now - last_refill_) / fill_interval_;
  return static_cast<std::uint32_t>(std::min<std::int64_t>(depth_, tokens_ + accrued));
}

bool TokenBucketMonitor::record_and_check(sim::TimePoint now) {
  observe_arrival(now);
  refill(now);
  const bool admit = tokens_ > 0;
  if (admit) --tokens_;
  count(admit);
  return admit;
}

sim::Duration token_bucket_interference(sim::Duration dt, sim::Duration fill_interval,
                                        std::uint32_t depth,
                                        sim::Duration effective_bottom) {
  assert(fill_interval.is_positive());
  if (!dt.is_positive()) return sim::Duration::zero();
  const std::int64_t admissions = depth + core::ceil_div(dt, fill_interval);
  return effective_bottom * admissions;
}

}  // namespace rthv::mon
