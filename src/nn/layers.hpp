#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace topil::nn {

/// Fully-connected layer: y = x * W + b, with accumulated parameter
/// gradients. It holds no activations: the caller keeps the batch a
/// forward pass ran and hands it back to backward (Mlp keeps them in its
/// TrainingWorkspace).
class DenseLayer {
 public:
  DenseLayer(std::size_t in_features, std::size_t out_features);

  /// Glorot/Xavier uniform initialization with the given generator.
  void init(Rng& rng);

  /// Forward pass over a batch (batch x in) into a caller-owned output
  /// (`out` must not alias `input`), through the fused kernel
  /// nn::dense_forward_simd. `relu` applies the activation inside the
  /// kernel; the result is bit-identical to a separate ReLU pass.
  void forward_into(const Matrix& input, Matrix& out, bool relu) const;

  /// Backward pass for the batch `input` that ran forward: accumulates
  /// dL/dW += input^T * grad_output and dL/db += column sums of grad_output
  /// until zero_grad. If `grad_input` is non-null it receives the gradient
  /// at the pre-activation of the ReLU that produced `input` (a hidden
  /// layer's input is the previous layer's ReLU output):
  /// grad_output * W^T, and 0 wherever input <= 0. `transposed` is scratch
  /// for W^T, reused across calls.
  void backward(const Matrix& input, const Matrix& grad_output,
                Matrix* grad_input, std::vector<float>& transposed);

  void zero_grad();

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  std::vector<float>& bias() { return b_; }
  const std::vector<float>& bias() const { return b_; }
  const Matrix& weight_grad() const { return dw_; }
  const std::vector<float>& bias_grad() const { return db_; }

  std::size_t num_params() const { return w_.size() + b_.size(); }

 private:
  std::size_t in_;
  std::size_t out_;
  Matrix w_;   ///< in x out
  std::vector<float> b_;
  Matrix dw_;
  std::vector<float> db_;
};

}  // namespace topil::nn
