#pragma once

#include <vector>

#include "nn/mlp.hpp"

namespace topil::nn {

/// Scalar reference of the training step (Mlp::forward, mse_gradient,
/// Mlp::backward, Adam::step) on its own copy of a model's parameters: a
/// linear forward per layer (dense_forward_reference) with the ReLU as a
/// separate pass that keeps the pre-activations, then per layer
/// dense_backward_reference followed by a `z <= 0` mask pass on those
/// pre-activations, and Adam one parameter at a time in the flat parameter
/// order. Production code never calls it; tests and perf_infer compare the
/// production step against it bit for bit.
class ReferenceTraining {
 public:
  explicit ReferenceTraining(const Mlp& model);

  /// Zeroes the gradients, runs forward and backward for the MSE loss of
  /// (x, target) and returns the prediction.
  Matrix forward_backward(const Matrix& x, const Matrix& target);

  /// One Adam step (default Adam::Config) from the accumulated gradients.
  void adam_step(double learning_rate);

  /// Parameters in Mlp::save_weights order.
  std::vector<float> weights() const;

  const Matrix& weight_grad(std::size_t layer) const {
    return layers_[layer].dw;
  }
  const std::vector<float>& bias_grad(std::size_t layer) const {
    return layers_[layer].db;
  }

 private:
  struct Layer {
    Matrix w;
    std::vector<float> b;
    Matrix dw;
    std::vector<float> db;
  };
  std::vector<Layer> layers_;
  std::vector<float> m_;
  std::vector<float> v_;
  std::size_t t_ = 0;
};

}  // namespace topil::nn
