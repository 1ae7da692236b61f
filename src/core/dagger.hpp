#pragma once

#include "il/online_oracle.hpp"
#include "il/pipeline.hpp"

// Lives in core/ (not il/) because the DAgger loop drives full experiments
// with governors, which sit above the IL library in the layering.

namespace topil::il {

/// DAgger-style interactive imitation learning.
///
/// The paper deliberately avoids DAgger: its exhaustive
/// one-example-per-source-core extraction already teaches the policy to
/// recover from every mapping. This trainer implements the classic
/// alternative — roll out the current policy, have the oracle label the
/// *visited* states, aggregate, retrain — so the two regimes can be
/// compared head-to-head (see bench/tab_dagger).
struct DaggerConfig {
  std::size_t iterations = 3;
  std::size_t rollouts_per_iteration = 4;
  double rollout_duration_s = 400.0;
  std::size_t workload_apps = 8;
  double arrival_rate_per_s = 0.05;
  double alpha = 1.0;
  /// Network topology and trainer settings (scenario fields unused).
  PipelineConfig training{};
  /// Thermal scheme for rollout sims and oracle labeling. Heun preserves
  /// historical traces; Exponential makes rollouts matvec-bound.
  ThermalIntegrator integrator = ThermalIntegrator::Heun;
  std::uint64_t seed = 11;
  /// Worker threads for the rollouts of one iteration (0 = hardware
  /// concurrency). Rollout seeds are fixed per (iteration, rollout)
  /// index and aggregation preserves rollout order, so the aggregated
  /// dataset — and thus the trained model — is identical for any value.
  std::size_t jobs = 0;
  /// Applications the rollout workloads draw from. Empty = the database's
  /// training kernels, whose per-cluster rows characterize the two
  /// reference clusters — on platforms with a different cluster count,
  /// pass apps whose perf rows match the topology (e.g. adapted via
  /// blend_perf). Pointees must outlive the trainer run.
  std::vector<const AppSpec*> app_pool{};
  /// Durable write-ahead log of the run (persist/training_wal.hpp): one
  /// examples + model + iteration-end record per iteration. Empty = no
  /// logging.
  std::string wal_path{};
  /// Resume from `wal_path`: completed iterations are replayed from the
  /// log and training restarts at the first incomplete one. Because
  /// retraining is deterministic in the aggregate dataset, the final
  /// model is bit-identical to an uninterrupted run.
  bool wal_resume = false;
};

/// Configuration fingerprint recorded in the training WAL's meta record;
/// `run` rejects a resume whose fingerprint differs (the bit-identity
/// contract holds only under the exact original configuration).
std::string dagger_wal_meta(const DaggerConfig& config);

struct DaggerIterationStats {
  std::size_t new_examples = 0;
  std::size_t total_examples = 0;
  double validation_loss = 0.0;
};

struct DaggerResult {
  nn::Mlp model;
  std::vector<DaggerIterationStats> iterations;
};

class DaggerTrainer {
 public:
  DaggerTrainer(const PlatformSpec& platform, const CoolingConfig& cooling);

  /// Run the full DAgger loop. Iteration 0 rolls out the oracle policy
  /// (expert demonstrations); later iterations roll out the latest learned
  /// policy. All states are labeled by the online oracle.
  DaggerResult run(const DaggerConfig& config) const;

  /// Roll out `policy` (or the oracle when null) on one random workload
  /// and return the oracle-labeled states visited at each migration epoch.
  std::vector<TrainingExample> collect_rollout(const nn::Mlp* policy,
                                               const DaggerConfig& config,
                                               std::uint64_t seed) const;

 private:
  const PlatformSpec* platform_;
  CoolingConfig cooling_;
};

}  // namespace topil::il
