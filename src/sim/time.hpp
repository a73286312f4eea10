// Strong time types for the discrete-event simulation.
//
// All simulated time is kept in signed 64-bit nanoseconds. Two distinct
// vocabulary types are used so that the type system separates "a length of
// time" (Duration) from "an instant on the simulated timeline" (TimePoint):
// adding two TimePoints, for example, does not compile.
//
// A 64-bit nanosecond count overflows after ~292 years of simulated time,
// far beyond any experiment in this project. The unit factories (us, ms,
// s, at_us) check their scaling and throw std::overflow_error in every
// build mode, because config keys and tool flags reach them unvalidated.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace rthv::sim {

namespace detail {
[[noreturn]] void throw_time_overflow(std::int64_t value, std::int64_t scale);

/// value * scale, throwing std::overflow_error instead of wrapping.
constexpr std::int64_t scaled(std::int64_t value, std::int64_t scale) {
  std::int64_t ns = 0;
  if (__builtin_mul_overflow(value, scale, &ns)) throw_time_overflow(value, scale);
  return ns;
}
}  // namespace detail

/// A signed length of simulated time with nanosecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  /// Named constructors -- prefer these over the raw-count constructor.
  [[nodiscard]] static constexpr Duration ns(std::int64_t v) { return Duration{v}; }
  [[nodiscard]] static constexpr Duration us(std::int64_t v) {
    return Duration{detail::scaled(v, 1000)};
  }
  [[nodiscard]] static constexpr Duration ms(std::int64_t v) {
    return Duration{detail::scaled(v, 1'000'000)};
  }
  [[nodiscard]] static constexpr Duration s(std::int64_t v) {
    return Duration{detail::scaled(v, 1'000'000'000)};
  }
  [[nodiscard]] static constexpr Duration zero() { return Duration{0}; }
  [[nodiscard]] static constexpr Duration max() { return Duration{INT64_MAX}; }

  /// Builds a duration from a (possibly fractional) microsecond count,
  /// rounding to the nearest nanosecond.
  [[nodiscard]] static Duration from_us_f(double v);

  [[nodiscard]] constexpr std::int64_t count_ns() const { return ns_; }
  [[nodiscard]] constexpr double as_us() const { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double as_ms() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double as_s() const { return static_cast<double>(ns_) / 1e9; }

  [[nodiscard]] constexpr bool is_zero() const { return ns_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return ns_ < 0; }
  [[nodiscard]] constexpr bool is_positive() const { return ns_ > 0; }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  friend constexpr Duration operator*(Duration a, std::int64_t k) { return Duration{a.ns_ * k}; }
  friend constexpr Duration operator*(std::int64_t k, Duration a) { return Duration{a.ns_ * k}; }
  friend constexpr Duration operator-(Duration a) { return Duration{-a.ns_}; }

  /// Integer division: how many times does `b` fit into `a` (floor for
  /// non-negative operands)?
  friend constexpr std::int64_t operator/(Duration a, Duration b) { return a.ns_ / b.ns_; }
  friend constexpr Duration operator%(Duration a, Duration b) { return Duration{a.ns_ % b.ns_}; }

  /// Renders e.g. "1234.5us".
  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr Duration(std::int64_t v) : ns_(v) {}
  std::int64_t ns_ = 0;
};

/// An instant on the simulated timeline (nanoseconds since simulation start).
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint origin() { return TimePoint{0}; }
  [[nodiscard]] static constexpr TimePoint at_ns(std::int64_t v) { return TimePoint{v}; }
  [[nodiscard]] static constexpr TimePoint at_us(std::int64_t v) {
    return TimePoint{detail::scaled(v, 1000)};
  }
  [[nodiscard]] static constexpr TimePoint max() { return TimePoint{INT64_MAX}; }

  [[nodiscard]] constexpr std::int64_t count_ns() const { return ns_; }
  [[nodiscard]] constexpr double as_us() const { return static_cast<double>(ns_) / 1e3; }

  constexpr auto operator<=>(const TimePoint&) const = default;

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.ns_ + d.count_ns()};
  }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) { return t + d; }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint{t.ns_ - d.count_ns()};
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::ns(a.ns_ - b.ns_);
  }
  constexpr TimePoint& operator+=(Duration d) { ns_ += d.count_ns(); return *this; }

  [[nodiscard]] std::string to_string() const;

 private:
  explicit constexpr TimePoint(std::int64_t v) : ns_(v) {}
  std::int64_t ns_ = 0;
};

std::ostream& operator<<(std::ostream& os, Duration d);
std::ostream& operator<<(std::ostream& os, TimePoint t);

namespace literals {
constexpr Duration operator""_ns(unsigned long long v) { return Duration::ns(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_us(unsigned long long v) { return Duration::us(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_ms(unsigned long long v) { return Duration::ms(static_cast<std::int64_t>(v)); }
constexpr Duration operator""_s(unsigned long long v) { return Duration::s(static_cast<std::int64_t>(v)); }
}  // namespace literals

}  // namespace rthv::sim
