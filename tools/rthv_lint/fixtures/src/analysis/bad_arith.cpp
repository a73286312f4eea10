// Fixture: raw tick arithmetic in analysis code. Every flagged line is the
// kind of silent-wrap hazard the checked-arith rule exists for.
#include "sim/time.hpp"

using rthv::sim::Duration;

Duration interference(Duration dt, Duration d_min, Duration cost) {
  Duration twice = cost * 2;                       // rthv-lint-expect: checked-arith
  Duration sum = twice + dt;                       // rthv-lint-expect: checked-arith
  Duration acc = sum; acc += d_min;                // rthv-lint-expect: checked-arith
  return sum;
}
