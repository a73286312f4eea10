#include "stats/summary.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace rthv::stats {

void Summary::add(sim::Duration sample) {
  samples_.push_back(sample);
  sorted_valid_ = false;
}

void Summary::merge(const Summary& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_valid_ = false;
}

void Summary::ensure_sorted() const {
  if (samples_.empty()) throw std::domain_error("stats::Summary: no samples");
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

sim::Duration Summary::mean() const {
  // Accumulate quotient and remainder separately to stay exact for sample
  // sums that would overflow 64-bit nanoseconds.
  const auto n = static_cast<std::int64_t>(samples_.size());
  std::int64_t quot = 0;
  std::int64_t rem = 0;
  for (const auto s : samples_) {
    quot += s.count_ns() / n;
    rem += s.count_ns() % n;
    quot += rem / n;
    rem %= n;
  }
  return sim::Duration::ns(quot);
}

sim::Duration Summary::min() const {
  ensure_sorted();
  return sorted_.front();
}

sim::Duration Summary::max() const {
  ensure_sorted();
  return sorted_.back();
}

sim::Duration Summary::stddev() const {
  if (empty()) throw std::domain_error("stats::Summary: no samples");
  const double m = static_cast<double>(mean().count_ns());
  double acc = 0;
  for (const auto s : samples_) {
    const double d = static_cast<double>(s.count_ns()) - m;
    acc += d * d;
  }
  return sim::Duration::ns(static_cast<std::int64_t>(
      std::sqrt(acc / static_cast<double>(samples_.size()))));
}

sim::Duration Summary::percentile(double p) const {
  assert(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (p == 0.0) return sorted_.front();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted_.size())));
  return sorted_[std::min(rank, sorted_.size()) - 1];
}

SlidingAverage::SlidingAverage(std::size_t window) : window_(window) {
  assert(window_ >= 1);
  buffer_.reserve(window_);
}

sim::Duration SlidingAverage::add(sim::Duration sample) {
  if (buffer_.size() < window_) {
    buffer_.push_back(sample);
    sum_ns_ += sample.count_ns();
  } else {
    sum_ns_ -= buffer_[next_].count_ns();
    buffer_[next_] = sample;
    sum_ns_ += sample.count_ns();
    next_ = (next_ + 1) % window_;
  }
  return current();
}

sim::Duration SlidingAverage::current() const {
  assert(!buffer_.empty());
  return sim::Duration::ns(sum_ns_ / static_cast<std::int64_t>(buffer_.size()));
}

}  // namespace rthv::stats
