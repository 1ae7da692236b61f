#include "nn/adam.hpp"

#include <algorithm>
#include <cmath>

#include "nn/simd_kernels.hpp"

namespace topil::nn {

Adam::Adam(Mlp& model, Config config) : model_(&model), config_(config) {
  TOPIL_REQUIRE(config.beta1 > 0.0 && config.beta1 < 1.0, "beta1 range");
  TOPIL_REQUIRE(config.beta2 > 0.0 && config.beta2 < 1.0, "beta2 range");
  m_.assign(model.num_params(), 0.0f);
  v_.assign(model.num_params(), 0.0f);
}

void Adam::step(double learning_rate) {
  TOPIL_REQUIRE(learning_rate > 0.0, "learning rate must be positive");
  TOPIL_REQUIRE(model_->num_params() == m_.size(),
                "optimizer/model parameter count mismatch");
  ++t_;
  const double t = static_cast<double>(t_);
  const AdamCoefficients c{.beta1 = config_.beta1,
                           .beta2 = config_.beta2,
                           .bias_correction1 = 1.0 - std::pow(config_.beta1, t),
                           .bias_correction2 = 1.0 - std::pow(config_.beta2, t),
                           .learning_rate = learning_rate,
                           .epsilon = config_.epsilon};

  // Moments follow the flat parameter order: each layer's weights, then
  // its bias.
  std::size_t offset = 0;
  for (auto& layer : model_->layers()) {
    Matrix& w = layer.weights();
    adam_update_simd(w.data(), layer.weight_grad().data(), m_.data() + offset,
                     v_.data() + offset, w.size(), c);
    offset += w.size();
    std::vector<float>& b = layer.bias();
    adam_update_simd(b.data(), layer.bias_grad().data(), m_.data() + offset,
                     v_.data() + offset, b.size(), c);
    offset += b.size();
  }
}

void Adam::reset() {
  std::fill(m_.begin(), m_.end(), 0.0f);
  std::fill(v_.begin(), v_.end(), 0.0f);
  t_ = 0;
}

}  // namespace topil::nn
