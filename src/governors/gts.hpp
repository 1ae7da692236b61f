#pragma once

#include <memory>
#include <optional>

#include "governors/governor.hpp"

namespace topil {

namespace persist {
struct SnapshotAccess;
}

/// Behavioural model of Linux Global Task Scheduling (big.LITTLE MP):
/// performance-hungry tasks are steered to the big cluster, cores are kept
/// balanced within a cluster, and load spills to the LITTLE cluster only
/// when the big cluster is saturated. QoS targets and application
/// characteristics are *not* consulted — exactly the blindness the paper
/// contrasts against.
class GtsScheduler {
 public:
  struct Config {
    double period_s = 0.1;
  };

  GtsScheduler();
  explicit GtsScheduler(Config config);

  void reset(SystemSim& sim);
  CoreId place(SystemSim& sim) const;
  void tick(SystemSim& sim);

 private:
  friend struct persist::SnapshotAccess;  ///< checkpoint/restore

  Config config_;
  double next_run_ = 0.0;

  /// Empty core of a cluster, if any.
  static std::optional<CoreId> empty_core(const SystemSim& sim,
                                          ClusterId cluster);
  /// Empty core anywhere, scanning tiers from highest to lowest perf score
  /// (PlatformSpec::clusters_by_perf) — topology-agnostic "big first".
  static std::optional<CoreId> empty_core_by_perf(const SystemSim& sim);
};

/// CPU-frequency policy interface shared by the Linux governor models.
class FreqPolicy {
 public:
  virtual ~FreqPolicy() = default;
  virtual std::string name() const = 0;
  virtual void reset(SystemSim& sim) { (void)sim; }
  virtual void tick(SystemSim& sim) = 0;

  /// Checkpoint hooks; same contract as Governor::save_state.
  virtual void save_state(persist::StateWriter& out) const { (void)out; }
  virtual void restore_state(persist::StateReader& in) { (void)in; }
};

/// GTS scheduling paired with a frequency policy — the state-of-the-
/// practice baselines "GTS/ondemand" and "GTS/powersave" of the paper.
class GtsGovernor : public Governor {
 public:
  GtsGovernor(std::unique_ptr<FreqPolicy> freq_policy,
              GtsScheduler::Config scheduler_config = {});

  std::string name() const override;
  void reset(SystemSim& sim) override;
  CoreId place(SystemSim& sim, const AppSpec& app,
               double qos_target_ips) override;
  void tick(SystemSim& sim) override;

  void save_state(persist::StateWriter& out) const override;
  void restore_state(persist::StateReader& in) override;

 private:
  GtsScheduler scheduler_;
  std::unique_ptr<FreqPolicy> freq_policy_;

  template <typename Io, typename Self>
  static void fields(Io& io, Self& self);
};

}  // namespace topil
