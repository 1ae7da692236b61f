#pragma once

#include "governors/dvfs_control.hpp"
#include "governors/governor.hpp"
#include "rl/mediator.hpp"

namespace topil {

/// TOP-RL: the reinforcement-learning baseline of the paper (Sec. 6).
/// One Q-learning agent per application over a shared quantized Q-table,
/// mediated so that only one migration executes per 500 ms epoch. The same
/// DVFS control loop as TOP-IL selects the per-cluster VF levels, making
/// the comparison isolate the migration policy.
class TopRlGovernor : public Governor {
 public:
  struct Config {
    double migration_period_s = 0.5;
    rl::RlParams params{};
    rl::StateQuantizer::Config state{};
    bool learning_enabled = true;
    /// CPU cost per epoch (state quantization, table lookups, mediation).
    double invocation_cost_s = 3.0e-4;
    double per_app_cost_s = 3.0e-5;
    DvfsControlLoop::Config dvfs{};
    std::uint64_t seed = 1;
  };

  /// Starts from a fresh (constant-initialized) Q-table.
  explicit TopRlGovernor(const PlatformSpec& platform);
  TopRlGovernor(const PlatformSpec& platform, Config config);
  /// Starts from a pre-trained Q-table (the paper pre-trains ~3 h and
  /// loads the table at the start of each evaluation run).
  TopRlGovernor(const PlatformSpec& platform, rl::QTable table,
                Config config);
  TopRlGovernor(const PlatformSpec& platform, rl::QTable table);

  std::string name() const override { return "TOP-RL"; }
  void reset(SystemSim& sim) override;
  void tick(SystemSim& sim) override;

  void save_state(persist::StateWriter& out) const override;
  void restore_state(persist::StateReader& in) override;

  const rl::QTable& table() const { return table_; }
  rl::QTable& table() { return table_; }
  std::size_t migrations_executed() const { return migrations_; }

 private:
  Config config_;
  rl::StateQuantizer quantizer_;
  rl::QTable table_;
  rl::RlMigrationController controller_;
  DvfsControlLoop dvfs_;
  double next_migration_ = 0.0;
  std::size_t migrations_ = 0;

  void migration_epoch(SystemSim& sim);
  template <typename Io, typename Self>
  static void fields(Io& io, Self& self);
};

}  // namespace topil
