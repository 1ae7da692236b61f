#pragma once

#include <optional>

#include "common/rng.hpp"
#include "rl/agent.hpp"
#include "rl/qtable.hpp"
#include "rl/state.hpp"
#include "sim/process.hpp"

namespace topil::persist {
struct SnapshotAccess;
}

namespace topil::rl {

/// Multi-agent migration controller with mediation (paper Sec. 6.2):
/// one conceptual agent per running application (all sharing one Q-table),
/// a mediator that executes only the single action with the highest
/// Q-value per epoch, and credit assignment of the next reward exclusively
/// to the selected agent.
class RlMigrationController {
 public:
  RlMigrationController(QTable& table, const StateQuantizer& quantizer,
                        RlParams params, Rng rng, bool learning_enabled);

  struct AppObservation {
    Pid pid = kNoPid;
    std::size_t state = 0;
    CoreId current_core = 0;
    std::vector<bool> allowed_actions;  ///< one per core
  };

  struct Decision {
    Pid pid = kNoPid;
    CoreId target_core = 0;
  };

  /// One control epoch: first performs the pending Q-update with `reward`
  /// (credited to the previously selected agent, bootstrapped from its new
  /// state), then lets every agent propose an action and mediates. Returns
  /// the migration to execute, if any application is running.
  std::optional<Decision> epoch(const std::vector<AppObservation>& obs,
                                double reward);

  /// Forget the pending action (e.g. between experiment runs).
  void reset_episode();

  bool learning_enabled() const { return learning_; }
  void set_learning_enabled(bool enabled) { learning_ = enabled; }
  const QTable& table() const { return *table_; }
  /// Secondary table (only meaningful when params.double_q is set).
  const QTable& table_b() const { return table_b_; }

 private:
  friend struct topil::persist::SnapshotAccess;  ///< checkpoint/restore

  QTable* table_;
  QTable table_b_;  ///< second estimator for double Q-learning
  const StateQuantizer* quantizer_;
  RlParams params_;
  Rng rng_;
  bool learning_;

  /// Q-value used for action selection and mediation: Q_a (vanilla) or
  /// Q_a + Q_b (double Q).
  double combined_q(std::size_t state, std::size_t action) const;
  std::size_t combined_greedy(std::size_t state,
                              const std::vector<bool>& allowed) const;
  void learn(std::size_t state, std::size_t action, double reward,
             const std::vector<AppObservation>& obs, Pid pid);

  struct Pending {
    Pid pid = kNoPid;
    std::size_t state = 0;
    std::size_t action = 0;
  };
  std::optional<Pending> pending_;
};

}  // namespace topil::rl
