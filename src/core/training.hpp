#pragma once

#include <string>

#include "il/pipeline.hpp"
#include "rl/qtable.hpp"

namespace topil {

/// The evaluation platform shared by benchmarks, examples, and tests.
const PlatformSpec& hikey970_platform();

/// Pre-train the TOP-RL Q-table on random workloads until `sim_hours` of
/// simulated time have elapsed (the paper trains ~3 h to convergence and
/// loads the stored table at the start of each evaluation run).
rl::QTable pretrain_rl_qtable(const PlatformSpec& platform, std::size_t seed,
                              double sim_hours = 1.0);

/// Design-time policy store with an on-disk cache, so the (expensive)
/// IL training and RL pre-training run once per seed and are shared by all
/// benchmark binaries. Cache location: $TOPIL_CACHE_DIR or ./.topil_cache.
class PolicyCache {
 public:
  static PolicyCache& instance();

  /// Trained IL policy network for the given weight-init seed.
  il::IlPolicyModel il_model(std::size_t seed);
  il::IlPolicyModel il_model(std::size_t seed,
                             const il::PipelineConfig& config,
                             const std::string& tag);

  /// Pre-trained TOP-RL Q-table for the given seed.
  rl::QTable rl_qtable(std::size_t seed);

 private:
  PolicyCache();
  std::string dir_;
};

}  // namespace topil
