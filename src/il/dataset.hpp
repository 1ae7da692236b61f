#pragma once

#include <vector>

#include "common/rng.hpp"
#include "il/oracle.hpp"
#include "nn/tensor.hpp"

namespace topil::il {

/// In-memory container of oracle demonstrations, convertible to the dense
/// matrices the NN trainer consumes.
class Dataset {
 public:
  Dataset(std::size_t feature_width, std::size_t label_width);

  void add(TrainingExample example);
  void add_all(std::vector<TrainingExample> examples);

  std::size_t size() const { return examples_.size(); }
  bool empty() const { return examples_.empty(); }
  std::size_t feature_width() const { return feature_width_; }
  std::size_t label_width() const { return label_width_; }
  const TrainingExample& at(std::size_t i) const;

  nn::Matrix features_matrix() const;
  nn::Matrix labels_matrix() const;

  /// Random subsample of at most `max_size` examples (for NAS speed).
  Dataset sample(std::size_t max_size, Rng& rng) const;

 private:
  std::size_t feature_width_;
  std::size_t label_width_;
  std::vector<TrainingExample> examples_;
};

}  // namespace topil::il
