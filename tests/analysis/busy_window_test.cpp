#include "analysis/busy_window.hpp"

#include <gtest/gtest.h>

#include "core/checked.hpp"

namespace rthv::analysis {
namespace {

using sim::Duration;

TEST(BusyWindowSolverTest, NoInterferenceIsLinear) {
  BusyWindowProblem p;
  p.per_event_cost = Duration::us(10);
  BusyWindowSolver solver(p);
  EXPECT_EQ(solver.busy_time(1), Duration::us(10));
  EXPECT_EQ(solver.busy_time(5), Duration::us(50));
}

TEST(BusyWindowSolverTest, ClassicResponseTimeExample) {
  // Two higher-priority periodic interferers: tau1 (C=1, T=4), tau2 (C=2,
  // T=6); analyzed task C=3. Classic fixed-point: R = 3 + eta1(R)*1 +
  // eta2(R)*2 -> well-known result R(1) ... compute: W = 3 +
  // ceil(W/4)*1 + ceil(W/6)*2. W=3: 3+1+2=6; W=6: 3+2+2=7; W=7: 3+2+4=9;
  // W=9: 3+3+4=10; W=10: 3+3+4=10. Fixed point 10.
  BusyWindowProblem p;
  p.per_event_cost = Duration::us(3);
  p.interference.push_back(load_interference(
      ArrivalCurve(make_sporadic(Duration::us(4))), Duration::us(1)));
  p.interference.push_back(load_interference(
      ArrivalCurve(make_sporadic(Duration::us(6))), Duration::us(2)));
  BusyWindowSolver solver(p);
  const auto w = solver.busy_time(1);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, Duration::us(10));
}

TEST(BusyWindowSolverTest, DivergesUnderOverload) {
  // Interferer demands 2us every 1us: utilization 200%.
  BusyWindowProblem p;
  p.per_event_cost = Duration::us(1);
  p.interference.push_back(load_interference(
      ArrivalCurve(make_sporadic(Duration::us(1))), Duration::us(2)));
  p.divergence_cap = Duration::ms(10);
  BusyWindowSolver solver(p);
  EXPECT_FALSE(solver.busy_time(1).has_value());
}

TEST(BusyWindowSolverTest, MultipleQScaleSuperlinearlyUnderInterference) {
  BusyWindowProblem p;
  p.per_event_cost = Duration::us(10);
  p.interference.push_back(load_interference(
      ArrivalCurve(make_sporadic(Duration::us(100))), Duration::us(30)));
  BusyWindowSolver solver(p);
  const auto w1 = solver.busy_time(1);
  const auto w2 = solver.busy_time(2);
  ASSERT_TRUE(w1 && w2);
  EXPECT_GT(*w2, *w1);
  EXPECT_GE(*w2, *w1 + Duration::us(10));
}

TEST(ResponseTimeTest, SingleActivationBusyPeriod) {
  // Own stream sparse enough that the busy period holds one activation.
  BusyWindowProblem p;
  p.per_event_cost = Duration::us(10);
  const SporadicModel own(Duration::ms(1));
  const auto r = response_time(p, own);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->q_max, 1u);
  EXPECT_EQ(r->critical_q, 1u);
  EXPECT_EQ(r->worst_case, Duration::us(10));
}

TEST(ResponseTimeTest, MultiActivationBusyPeriod) {
  // Own events every 10us, each costing 8us, plus an interferer burning
  // 5us every 30us: the busy period spans several activations.
  BusyWindowProblem p;
  p.per_event_cost = Duration::us(8);
  p.interference.push_back(load_interference(
      ArrivalCurve(make_sporadic(Duration::us(30))), Duration::us(5)));
  const SporadicModel own(Duration::us(10));
  const auto r = response_time(p, own);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->q_max, 1u);
  // W(q) - delta(q) is the per-activation response; the worst case must be
  // at least the single-activation one.
  EXPECT_GE(r->worst_case, Duration::us(13));
  EXPECT_EQ(r->busy_times.size(), r->q_max);
}

TEST(ResponseTimeTest, OverloadReturnsNullopt) {
  BusyWindowProblem p;
  p.per_event_cost = Duration::us(20);
  p.divergence_cap = Duration::ms(10);
  const SporadicModel own(Duration::us(10));  // own utilization 200%
  EXPECT_FALSE(response_time(p, own).has_value());
}

TEST(ResponseTimeTest, WindowDependentTermHandled) {
  // A TDMA-like blocking term: ceil(W / 100us) * 60us.
  BusyWindowProblem p;
  p.per_event_cost = Duration::us(10);
  p.interference.push_back([](Duration w) {
    return Duration::us(60) * core::ceil_div(w, Duration::us(100));
  });
  const SporadicModel own(Duration::ms(10));
  const auto r = response_time(p, own);
  ASSERT_TRUE(r.has_value());
  // W(1) = 10 + 60 = 70 (ceil(70/100) = 1, stable).
  EXPECT_EQ(r->worst_case, Duration::us(70));
}

TEST(ResponseTimeTest, BusyTimesAreMonotoneInQ) {
  BusyWindowProblem p;
  p.per_event_cost = Duration::us(7);  // util 0.7 + 0.15 interference < 1
  p.interference.push_back(load_interference(
      ArrivalCurve(make_sporadic(Duration::us(40))), Duration::us(6)));
  const SporadicModel own(Duration::us(10));
  const auto r = response_time(p, own);
  ASSERT_TRUE(r.has_value());
  for (std::size_t i = 1; i < r->busy_times.size(); ++i) {
    EXPECT_GT(r->busy_times[i], r->busy_times[i - 1]);
  }
}

}  // namespace
}  // namespace rthv::analysis
