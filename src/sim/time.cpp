#include "sim/time.hpp"

#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rthv::sim {

void detail::throw_time_overflow(std::int64_t value, std::int64_t scale) {
  throw std::overflow_error(std::to_string(value) + " x " + std::to_string(scale) +
                            " ns overflows simulated time");
}

Duration Duration::from_us_f(double v) {
  return Duration{static_cast<std::int64_t>(std::llround(v * 1e3))};
}

std::string Duration::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::string TimePoint::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, Duration d) {
  return os << d.as_us() << "us";
}

std::ostream& operator<<(std::ostream& os, TimePoint t) {
  return os << "t=" << t.as_us() << "us";
}

}  // namespace rthv::sim
