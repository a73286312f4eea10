#include "sim/time.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/checked.hpp"

namespace rthv::sim {
namespace {

using namespace rthv::sim::literals;

TEST(DurationTest, DefaultIsZero) {
  Duration d;
  EXPECT_TRUE(d.is_zero());
  EXPECT_EQ(d.count_ns(), 0);
}

TEST(DurationTest, NamedConstructorsScaleCorrectly) {
  EXPECT_EQ(Duration::ns(7).count_ns(), 7);
  EXPECT_EQ(Duration::us(7).count_ns(), 7'000);
  EXPECT_EQ(Duration::ms(7).count_ns(), 7'000'000);
  EXPECT_EQ(Duration::s(7).count_ns(), 7'000'000'000);
}

TEST(DurationTest, LiteralsMatchNamedConstructors) {
  EXPECT_EQ(3_ns, Duration::ns(3));
  EXPECT_EQ(3_us, Duration::us(3));
  EXPECT_EQ(3_ms, Duration::ms(3));
  EXPECT_EQ(3_s, Duration::s(3));
}

TEST(DurationTest, FromFractionalMicrosecondsRounds) {
  EXPECT_EQ(Duration::from_us_f(1.5).count_ns(), 1500);
  EXPECT_EQ(Duration::from_us_f(0.0004).count_ns(), 0);  // below 1 ns rounds down
  EXPECT_EQ(Duration::from_us_f(0.0006).count_ns(), 1);
}

TEST(DurationTest, ArithmeticOperators) {
  EXPECT_EQ(2_us + 3_us, 5_us);
  EXPECT_EQ(5_us - 3_us, 2_us);
  EXPECT_EQ(2_us * 3, 6_us);
  EXPECT_EQ(3 * 2_us, 6_us);
  EXPECT_EQ(-(2_us), Duration::us(-2));
  Duration d = 1_us;
  d += 1_us;
  d -= 500_ns;
  EXPECT_EQ(d, 1500_ns);
}

TEST(DurationTest, DivisionAndModulo) {
  EXPECT_EQ(10_us / (3_us), 3);
  EXPECT_EQ(10_us % (3_us), 1_us);
}

TEST(DurationTest, CeilDiv) {
  EXPECT_EQ(core::ceil_div(10_us, 3_us), 4);
  EXPECT_EQ(core::ceil_div(9_us, 3_us), 3);
  EXPECT_EQ(core::ceil_div(1_ns, 3_us), 1);
  EXPECT_EQ(core::ceil_div(Duration::ns(-3), 3_ns), -1);
  EXPECT_EQ(core::ceil_div(Duration::max(), 3_ns), INT64_MAX / 3 + 1);
}

TEST(DurationTest, UnitFactoriesThrowOnOverflow) {
  EXPECT_EQ(Duration::us(INT64_MAX / 1000), Duration::ns(INT64_MAX / 1000 * 1000));
  EXPECT_THROW((void)Duration::us(INT64_MAX / 1000 + 1), std::overflow_error);
  EXPECT_THROW((void)Duration::ms(99'999'999'999'999), std::overflow_error);
  EXPECT_THROW((void)Duration::s(-10'000'000'000), std::overflow_error);
  EXPECT_THROW((void)TimePoint::at_us(9'300'000'000'000'000), std::overflow_error);
  static_assert(Duration::ms(100).count_ns() == 100'000'000);  // still constexpr
}

TEST(DurationTest, SignPredicates) {
  EXPECT_TRUE((1_ns).is_positive());
  EXPECT_FALSE((1_ns).is_negative());
  EXPECT_TRUE((0_ns - 1_ns).is_negative());
  EXPECT_TRUE(Duration::zero().is_zero());
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(1_us, 2_us);
  EXPECT_GE(2_us, 2_us);
  EXPECT_EQ(Duration::max().count_ns(), INT64_MAX);
}

TEST(DurationTest, ConversionsToFloating) {
  EXPECT_DOUBLE_EQ((1500_ns).as_us(), 1.5);
  EXPECT_DOUBLE_EQ((2'500'000_ns).as_ms(), 2.5);
  EXPECT_DOUBLE_EQ(Duration::s(3).as_s(), 3.0);
}

TEST(DurationTest, StreamFormat) {
  std::ostringstream os;
  os << 1500_ns;
  EXPECT_EQ(os.str(), "1.5us");
  EXPECT_EQ((42_us).to_string(), "42us");
}

TEST(TimePointTest, OriginAndOffsets) {
  const TimePoint t0 = TimePoint::origin();
  EXPECT_EQ(t0.count_ns(), 0);
  const TimePoint t1 = t0 + 5_us;
  EXPECT_EQ(t1.count_ns(), 5000);
  EXPECT_EQ(t1 - t0, 5_us);
  EXPECT_EQ(t1 - 2_us, TimePoint::at_us(3));
}

TEST(TimePointTest, AtConstructors) {
  EXPECT_EQ(TimePoint::at_ns(1500).count_ns(), 1500);
  EXPECT_EQ(TimePoint::at_us(2).count_ns(), 2000);
  EXPECT_DOUBLE_EQ(TimePoint::at_ns(1500).as_us(), 1.5);
}

TEST(TimePointTest, CompoundAdd) {
  TimePoint t = TimePoint::origin();
  t += 7_us;
  EXPECT_EQ(t, TimePoint::at_us(7));
}

TEST(TimePointTest, Ordering) {
  EXPECT_LT(TimePoint::at_us(1), TimePoint::at_us(2));
  EXPECT_EQ(TimePoint::max().count_ns(), INT64_MAX);
}

TEST(TimePointTest, DifferenceCanBeNegative) {
  EXPECT_EQ(TimePoint::at_us(1) - TimePoint::at_us(3), Duration::us(-2));
}

}  // namespace
}  // namespace rthv::sim
