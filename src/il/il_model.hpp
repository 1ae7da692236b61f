#pragma once

#include <optional>
#include <vector>

#include "il/features.hpp"
#include "nn/mlp.hpp"

namespace topil::il {

/// The migration the run-time policy selects: application index (within the
/// batch the ratings were computed for) and destination core.
struct MigrationChoice {
  std::size_t app_index = 0;
  CoreId target_core = 0;
  double improvement = 0.0;
};

/// Paper Eq. 5: among all (application, core) pairs, pick the migration
/// with the largest rating improvement over the application's current
/// mapping. Targets may be masked (cores occupied by other applications).
/// Returns nullopt when no allowed migration improves by more than
/// `min_improvement`.
std::optional<MigrationChoice> select_best_migration(
    const nn::Matrix& ratings, const std::vector<CoreId>& current_cores,
    const std::vector<std::vector<bool>>& allowed_targets,
    double min_improvement = 0.0);

/// A trained IL migration policy: the NN plus its feature definition.
class IlPolicyModel {
 public:
  IlPolicyModel(nn::Mlp model, const PlatformSpec& platform);

  /// The NN input batch, one row per application; the governor rates it
  /// on the NPU, or on the CPU where the platform has none.
  nn::Matrix build_batch(const std::vector<FeatureInput>& inputs) const;

  const nn::Mlp& network() const { return model_; }
  const FeatureExtractor& features() const { return features_; }

 private:
  nn::Mlp model_;
  FeatureExtractor features_;
};

}  // namespace topil::il
