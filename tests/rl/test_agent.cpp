#include "rl/agent.hpp"

#include <gtest/gtest.h>

namespace topil::rl {
namespace {

TEST(Reward, EquationSevenShape) {
  const RlParams params;
  // All QoS met: r = 80 - T.
  EXPECT_DOUBLE_EQ(compute_reward(params, 45.0, false), 35.0);
  EXPECT_DOUBLE_EQ(compute_reward(params, 80.0, false), 0.0);
  // Any violation: the tuned -200 penalty.
  EXPECT_DOUBLE_EQ(compute_reward(params, 45.0, true), -200.0);
}

TEST(Reward, CoolerIsAlwaysBetterWhenFeasible) {
  const RlParams params;
  EXPECT_GT(compute_reward(params, 40.0, false),
            compute_reward(params, 50.0, false));
  // And any feasible temperature beats a violation.
  EXPECT_GT(compute_reward(params, 95.0, false),
            compute_reward(params, 30.0, true));
}

}  // namespace
}  // namespace topil::rl
