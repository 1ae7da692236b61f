#include "rl/agent.hpp"

namespace topil::rl {

double compute_reward(const RlParams& params, double temp_c,
                      bool any_qos_violation) {
  if (any_qos_violation) return params.violation_reward;
  return params.reward_base_c - temp_c;
}

}  // namespace topil::rl
