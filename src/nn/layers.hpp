#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace topil::nn {

/// Fully-connected layer: y = x * W + b, with cached activations for
/// backprop and accumulated parameter gradients.
class DenseLayer {
 public:
  DenseLayer(std::size_t in_features, std::size_t out_features);

  /// Glorot/Xavier uniform initialization with the given generator.
  void init(Rng& rng);

  /// Forward pass over a batch (batch x in) -> (batch x out). Caches the
  /// input for the subsequent backward pass.
  Matrix forward(const Matrix& input);

  /// Inference-only forward pass (no caching, usable on const layers).
  Matrix forward_inference(const Matrix& input) const;

  /// Inference forward pass into a caller-owned output (`out` must not
  /// alias `input`), through the fused kernel nn::dense_forward_simd.
  /// `relu` applies the activation inside the kernel; the result is
  /// bit-identical to a separate ReLU pass.
  void forward_inference_into(const Matrix& input, Matrix& out,
                              bool relu) const;

  /// Backward pass: given dL/dy, accumulates dL/dW and dL/db and returns
  /// dL/dx for the upstream layer.
  Matrix backward(const Matrix& grad_output);

  void zero_grad();

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  std::vector<float>& bias() { return b_; }
  const std::vector<float>& bias() const { return b_; }
  const Matrix& weight_grad() const { return dw_; }
  const std::vector<float>& bias_grad() const { return db_; }

  /// Flat views over all parameters / gradients for the optimizer.
  std::size_t num_params() const { return w_.size() + b_.size(); }
  float* param(std::size_t i);
  float grad(std::size_t i) const;

 private:
  std::size_t in_;
  std::size_t out_;
  Matrix w_;   ///< in x out
  std::vector<float> b_;
  Matrix dw_;
  std::vector<float> db_;
  Matrix cached_input_;
};

/// Element-wise ReLU with cached mask.
class ReluLayer {
 public:
  Matrix forward(const Matrix& input);
  static Matrix forward_inference(const Matrix& input);
  Matrix backward(const Matrix& grad_output) const;

 private:
  Matrix cached_input_;
};

}  // namespace topil::nn
