#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace topil::persist {
struct SnapshotAccess;
}

namespace topil::rl {

/// Tabular action-value function shared by all per-application agents
/// (paper: the shared table improves generalization and gives newly
/// arriving applications a trained policy immediately).
class QTable {
 public:
  QTable(std::size_t num_states, std::size_t num_actions,
         double initial_value = 25.0);

  std::size_t num_states() const { return num_states_; }
  std::size_t num_actions() const { return num_actions_; }
  std::size_t num_entries() const { return values_.size(); }

  double q(std::size_t state, std::size_t action) const;
  void set_q(std::size_t state, std::size_t action, double value);

  /// Greedy action among allowed ones; ties broken toward lower index.
  std::size_t greedy_action(std::size_t state,
                            const std::vector<bool>& allowed) const;
  /// Maximum Q over allowed actions of a state.
  double max_q(std::size_t state, const std::vector<bool>& allowed) const;

  /// One tabular Q-learning update:
  /// Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)).
  void update(std::size_t state, std::size_t action, double reward,
              std::size_t next_state, const std::vector<bool>& next_allowed,
              double alpha, double gamma);
  /// Terminal-state variant (no bootstrap term).
  void update_terminal(std::size_t state, std::size_t action, double reward,
                       double alpha);

  void save(const std::string& path) const;
  static QTable load(const std::string& path);

 private:
  friend struct topil::persist::SnapshotAccess;  ///< checkpoint/restore

  std::size_t num_states_;
  std::size_t num_actions_;
  std::vector<double> values_;

  std::size_t index(std::size_t state, std::size_t action) const;
  /// The file `save` writes and `load` reads.
  template <typename Io, typename Self>
  static void file_fields(Io& io, Self& table);
};

}  // namespace topil::rl
