#pragma once

namespace topil::rl {

/// Q-learning hyper-parameters (paper Sec. 6.3, following Lu et al.).
struct RlParams {
  double epsilon = 0.1;
  double gamma = 0.8;
  double alpha = 0.05;
  /// Double Q-learning (van Hasselt): decouples action selection from
  /// evaluation to curb maximization bias. Extension knob; the paper's
  /// TOP-RL uses vanilla Q-learning.
  bool double_q = false;
  /// Reward when all QoS targets are met: r = reward_base_c - T.
  double reward_base_c = 80.0;
  /// Penalty reward on any QoS violation.
  double violation_reward = -200.0;
};

/// Paper Eq. 7: combined scalar reward.
double compute_reward(const RlParams& params, double temp_c,
                      bool any_qos_violation);

}  // namespace topil::rl
