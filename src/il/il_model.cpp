#include "il/il_model.hpp"

namespace topil::il {

std::optional<MigrationChoice> select_best_migration(
    const nn::Matrix& ratings, const std::vector<CoreId>& current_cores,
    const std::vector<std::vector<bool>>& allowed_targets,
    double min_improvement) {
  TOPIL_REQUIRE(ratings.rows() == current_cores.size(),
                "one rating row per application required");
  TOPIL_REQUIRE(allowed_targets.size() == current_cores.size(),
                "one target mask per application required");

  std::optional<MigrationChoice> best;
  for (std::size_t k = 0; k < ratings.rows(); ++k) {
    TOPIL_REQUIRE(current_cores[k] < ratings.cols(),
                  "current core out of range");
    TOPIL_REQUIRE(allowed_targets[k].size() == ratings.cols(),
                  "target mask width mismatch");
    const float current = ratings.at(k, current_cores[k]);
    for (CoreId c = 0; c < ratings.cols(); ++c) {
      if (c == current_cores[k] || !allowed_targets[k][c]) continue;
      const double improvement =
          static_cast<double>(ratings.at(k, c)) -
          static_cast<double>(current);
      if (improvement <= min_improvement) continue;
      if (!best || improvement > best->improvement) {
        best = MigrationChoice{k, c, improvement};
      }
    }
  }
  return best;
}

IlPolicyModel::IlPolicyModel(nn::Mlp model, const PlatformSpec& platform)
    : model_(std::move(model)), features_(platform) {
  TOPIL_REQUIRE(model_.topology().inputs == features_.num_features(),
                "model input width does not match feature definition");
  TOPIL_REQUIRE(model_.topology().outputs == features_.num_outputs(),
                "model output width does not match core count");
}

nn::Matrix IlPolicyModel::build_batch(
    const std::vector<FeatureInput>& inputs) const {
  TOPIL_REQUIRE(!inputs.empty(), "empty feature batch");
  return features_.extract_batch(inputs);
}

}  // namespace topil::il
