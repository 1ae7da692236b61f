#include "rl/mediator.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace topil::rl {
namespace {

class MediatorTest : public ::testing::Test {
 protected:
  PlatformSpec platform_ = PlatformSpec::hikey970();
  StateQuantizer quantizer_{platform_};

  RlMigrationController::AppObservation obs(Pid pid, std::size_t state,
                                            CoreId core) const {
    RlMigrationController::AppObservation o;
    o.pid = pid;
    o.state = state;
    o.current_core = core;
    o.allowed_actions.assign(8, true);
    return o;
  }
};

TEST_F(MediatorTest, MediatorExecutesHighestQProposal) {
  QTable table(quantizer_.num_states(), 8, 0.0);
  // Agent in state 5 strongly prefers core 3; state 9 mildly prefers 1.
  table.set_q(5, 3, 50.0);
  table.set_q(9, 1, 10.0);
  RlMigrationController ctl(table, quantizer_, RlParams{}, Rng(1),
                            /*learning=*/false);
  const auto decision =
      ctl.epoch({obs(100, 9, 0), obs(200, 5, 7)}, /*reward=*/0.0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->pid, 200u);
  EXPECT_EQ(decision->target_core, 3u);
}

TEST_F(MediatorTest, OnlyOneActionPerEpoch) {
  QTable table(quantizer_.num_states(), 8, 1.0);
  RlMigrationController ctl(table, quantizer_, RlParams{}, Rng(2), false);
  const auto decision = ctl.epoch({obs(1, 0, 0), obs(2, 1, 1)}, 0.0);
  ASSERT_TRUE(decision.has_value());
  // Exactly one (pid, core) pair comes back per epoch by construction;
  // empty observation sets produce no action.
  EXPECT_FALSE(ctl.epoch({}, 0.0).has_value());
}

TEST_F(MediatorTest, RewardCreditedOnlyToSelectedAgent) {
  QTable table(quantizer_.num_states(), 8, 0.0);
  table.set_q(5, 3, 50.0);
  RlParams params;
  params.alpha = 0.5;
  params.gamma = 0.0;  // isolate the immediate reward
  RlMigrationController ctl(table, quantizer_, params, Rng(3),
                            /*learning=*/true);
  // Epoch 1: agent (pid 200, state 5) selected, executes action 3.
  ctl.epoch({obs(100, 9, 0), obs(200, 5, 7)}, 0.0);
  // Epoch 2: reward 20 arrives; only Q(5,3) may change.
  const double q93_before = table.q(9, 3);
  ctl.epoch({obs(100, 9, 0), obs(200, 5, 3)}, 20.0);
  EXPECT_DOUBLE_EQ(table.q(5, 3), 50.0 + 0.5 * (20.0 - 50.0));
  EXPECT_DOUBLE_EQ(table.q(9, 3), q93_before);
}

TEST_F(MediatorTest, FinishedAgentGetsTerminalUpdate) {
  QTable table(quantizer_.num_states(), 8, 0.0);
  table.set_q(5, 3, 50.0);
  RlParams params;
  params.alpha = 0.5;
  RlMigrationController ctl(table, quantizer_, params, Rng(4), true);
  ctl.epoch({obs(200, 5, 7)}, 0.0);
  // pid 200 finished before the next epoch: terminal update with reward 10.
  ctl.epoch({obs(300, 9, 0)}, 10.0);
  EXPECT_DOUBLE_EQ(table.q(5, 3), 50.0 + 0.5 * (10.0 - 50.0));
}

TEST_F(MediatorTest, LearningDisabledFreezesTable) {
  QTable table(quantizer_.num_states(), 8, 7.0);
  RlMigrationController ctl(table, quantizer_, RlParams{}, Rng(5), false);
  ctl.epoch({obs(1, 0, 0)}, 0.0);
  ctl.epoch({obs(1, 0, 0)}, -200.0);
  for (std::size_t s = 0; s < table.num_states(); ++s) {
    for (std::size_t a = 0; a < 8; ++a) {
      ASSERT_DOUBLE_EQ(table.q(s, a), 7.0);
    }
  }
}

TEST_F(MediatorTest, ResetEpisodeDropsPendingCredit) {
  QTable table(quantizer_.num_states(), 8, 0.0);
  table.set_q(5, 3, 50.0);
  RlParams params;
  params.alpha = 0.5;
  RlMigrationController ctl(table, quantizer_, params, Rng(6), true);
  ctl.epoch({obs(200, 5, 7)}, 0.0);
  ctl.reset_episode();
  ctl.epoch({obs(200, 5, 3)}, -200.0);  // no pending: no update happens
  EXPECT_DOUBLE_EQ(table.q(5, 3), 50.0);
}

// The epsilon-greedy exploration RlMigrationController::epoch runs inline:
// a learning agent explores with probability epsilon, uniformly over its
// allowed cores; otherwise it takes the greedy core. alpha = 0 keeps the
// table (and so the greedy core 0) fixed while the rewards arrive.
using EpsilonGreedy = MediatorTest;

TEST_F(EpsilonGreedy, OneEpsilonIsUniformOverAllowed) {
  QTable table(quantizer_.num_states(), 8, 0.0);
  table.set_q(0, 0, 10.0);
  RlParams params;
  params.alpha = 0.0;
  params.epsilon = 1.0;
  RlMigrationController ctl(table, quantizer_, params, Rng(2), true);
  RlMigrationController::AppObservation masked = obs(1, 0, 0);
  masked.allowed_actions = {true, false, true, false, false, false, false,
                            false};
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 3000; ++i) {
    ++counts[ctl.epoch({masked}, 0.0)->target_core];
  }
  EXPECT_GT(counts[0], 1200);
  EXPECT_GT(counts[2], 1200);
  EXPECT_EQ(counts[0] + counts[2], 3000);  // masked cores are never drawn
}

TEST_F(EpsilonGreedy, ExplorationRateApproximatelyEpsilon) {
  QTable table(quantizer_.num_states(), 8, 0.0);
  table.set_q(0, 0, 10.0);
  RlParams params;
  params.alpha = 0.0;
  params.epsilon = 0.1;
  RlMigrationController ctl(table, quantizer_, params, Rng(3), true);
  int non_greedy = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    non_greedy += ctl.epoch({obs(1, 0, 0)}, 0.0)->target_core != 0 ? 1 : 0;
  }
  // Exploration leaves the greedy core in 7 of 8 draws.
  EXPECT_NEAR(static_cast<double>(non_greedy) / n, 0.1 * 7 / 8, 0.015);
}

TEST_F(MediatorTest, QLearningImprovesPolicyOnToyProblem) {
  // Toy MDP embedded in the migration interface: action 2 always yields a
  // high reward, others low. After training the greedy policy picks 2.
  QTable table(quantizer_.num_states(), 8, 0.0);
  RlParams params;
  params.epsilon = 0.3;
  params.alpha = 0.2;
  RlMigrationController ctl(table, quantizer_, params, Rng(7), true);
  std::size_t state = 0;
  std::size_t last_action = 0;
  for (int i = 0; i < 600; ++i) {
    const double reward = (last_action == 2) ? 10.0 : -1.0;
    const auto decision = ctl.epoch({obs(1, state, 0)}, reward);
    ASSERT_TRUE(decision.has_value());
    last_action = decision->target_core;
  }
  EXPECT_EQ(table.greedy_action(0, std::vector<bool>(8, true)), 2u);
}

TEST_F(MediatorTest, DoubleQUpdatesSplitAcrossTables) {
  QTable table(quantizer_.num_states(), 8, 0.0);
  RlParams params;
  params.double_q = true;
  params.alpha = 0.5;
  params.epsilon = 0.0;
  RlMigrationController ctl(table, quantizer_, params, Rng(12), true);
  // Run many reward-credit cycles; both estimators must receive updates.
  for (int i = 0; i < 60; ++i) {
    ctl.epoch({obs(1, 0, 0)}, 4.0);
  }
  bool a_changed = false;
  bool b_changed = false;
  for (std::size_t a = 0; a < 8; ++a) {
    a_changed |= ctl.table().q(0, a) != 0.0;
    b_changed |= ctl.table_b().q(0, a) != 0.0;
  }
  EXPECT_TRUE(a_changed);
  EXPECT_TRUE(b_changed);
}

TEST_F(MediatorTest, DoubleQConvergesOnToyProblem) {
  QTable table(quantizer_.num_states(), 8, 0.0);
  RlParams params;
  params.double_q = true;
  params.epsilon = 0.3;
  params.alpha = 0.2;
  RlMigrationController ctl(table, quantizer_, params, Rng(13), true);
  std::size_t last_action = 0;
  for (int i = 0; i < 800; ++i) {
    const double reward = (last_action == 2) ? 10.0 : -1.0;
    const auto decision = ctl.epoch({obs(1, 0, 0)}, reward);
    ASSERT_TRUE(decision.has_value());
    last_action = decision->target_core;
  }
  // Combined greedy action is 2 on both estimators.
  EXPECT_EQ(ctl.table().greedy_action(0, std::vector<bool>(8, true)), 2u);
  EXPECT_EQ(ctl.table_b().greedy_action(0, std::vector<bool>(8, true)), 2u);
}

TEST_F(MediatorTest, DoubleQReducesOverestimationUnderNoise) {
  // Bandit with noisy equal-mean arms: vanilla Q's max operator inflates
  // the best-looking Q value more than double Q does.
  auto run = [&](bool double_q, std::uint64_t seed) {
    QTable table(quantizer_.num_states(), 8, 0.0);
    RlParams params;
    params.double_q = double_q;
    params.epsilon = 1.0;  // pure exploration
    params.alpha = 0.2;
    params.gamma = 0.8;
    RlMigrationController ctl(table, quantizer_, params, Rng(seed), true);
    Rng noise(seed ^ 0xabcdu);
    for (int i = 0; i < 3000; ++i) {
      ctl.epoch({obs(1, 0, 0)}, noise.gaussian(0.0, 3.0));
    }
    // True value of every action is 0; report the max combined estimate.
    double max_q = -1e9;
    for (std::size_t a = 0; a < 8; ++a) {
      const double q = double_q
                           ? 0.5 * (ctl.table().q(0, a) +
                                    ctl.table_b().q(0, a))
                           : ctl.table().q(0, a);
      max_q = std::max(max_q, q);
    }
    return max_q;
  };
  RunningStats vanilla;
  RunningStats doubled;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    vanilla.add(run(false, seed));
    doubled.add(run(true, seed));
  }
  EXPECT_LT(doubled.mean(), vanilla.mean());
}

TEST_F(MediatorTest, ValidatesConstruction) {
  QTable wrong(10, 8, 0.0);
  EXPECT_THROW(RlMigrationController(wrong, quantizer_, RlParams{}, Rng(1),
                                     true),
               InvalidArgument);
}

}  // namespace
}  // namespace topil::rl
