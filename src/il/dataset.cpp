#include "il/dataset.hpp"

#include <numeric>

namespace topil::il {

Dataset::Dataset(std::size_t feature_width, std::size_t label_width)
    : feature_width_(feature_width), label_width_(label_width) {
  TOPIL_REQUIRE(feature_width > 0 && label_width > 0,
                "dataset widths must be positive");
}

void Dataset::add(TrainingExample example) {
  TOPIL_REQUIRE(example.features.size() == feature_width_,
                "feature width mismatch");
  TOPIL_REQUIRE(example.labels.size() == label_width_,
                "label width mismatch");
  examples_.push_back(std::move(example));
}

void Dataset::add_all(std::vector<TrainingExample> examples) {
  for (auto& e : examples) add(std::move(e));
}

const TrainingExample& Dataset::at(std::size_t i) const {
  TOPIL_REQUIRE(i < examples_.size(), "example index out of range");
  return examples_[i];
}

nn::Matrix Dataset::features_matrix() const {
  TOPIL_REQUIRE(!examples_.empty(), "empty dataset");
  nn::Matrix m(examples_.size(), feature_width_);
  for (std::size_t r = 0; r < examples_.size(); ++r) {
    float* row = m.row(r);
    for (std::size_t c = 0; c < feature_width_; ++c) {
      row[c] = examples_[r].features[c];
    }
  }
  return m;
}

nn::Matrix Dataset::labels_matrix() const {
  TOPIL_REQUIRE(!examples_.empty(), "empty dataset");
  nn::Matrix m(examples_.size(), label_width_);
  for (std::size_t r = 0; r < examples_.size(); ++r) {
    float* row = m.row(r);
    for (std::size_t c = 0; c < label_width_; ++c) {
      row[c] = examples_[r].labels[c];
    }
  }
  return m;
}

Dataset Dataset::sample(std::size_t max_size, Rng& rng) const {
  if (examples_.size() <= max_size) return *this;
  std::vector<std::size_t> order(examples_.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  Dataset out(feature_width_, label_width_);
  for (std::size_t i = 0; i < max_size; ++i) {
    out.add(examples_[order[i]]);
  }
  return out;
}

}  // namespace topil::il
