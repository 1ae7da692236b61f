#include "nn/layers.hpp"

#include <cmath>

#include "nn/simd_kernels.hpp"

namespace topil::nn {

DenseLayer::DenseLayer(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      w_(in_features, out_features),
      b_(out_features, 0.0f),
      dw_(in_features, out_features),
      db_(out_features, 0.0f) {
  TOPIL_REQUIRE(in_features > 0 && out_features > 0,
                "layer dimensions must be positive");
}

void DenseLayer::init(Rng& rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(in_ + out_));
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = static_cast<float>(rng.uniform(-limit, limit));
  }
  for (float& x : b_) x = 0.0f;
}

Matrix DenseLayer::forward(const Matrix& input) {
  cached_input_ = input;
  return forward_inference(input);
}

Matrix DenseLayer::forward_inference(const Matrix& input) const {
  Matrix out;
  forward_inference_into(input, out, /*relu=*/false);
  return out;
}

void DenseLayer::forward_inference_into(const Matrix& input, Matrix& out,
                                        bool relu) const {
  TOPIL_REQUIRE(input.cols() == in_, "dense layer input width mismatch");
  TOPIL_REQUIRE(&out != &input, "dense layer output must not alias input");
  out.resize(input.rows(), out_);
  dense_forward_simd(input.data(), input.rows(), in_, w_.data(), b_.data(),
                     out_, out.data(), relu);
}

Matrix DenseLayer::backward(const Matrix& grad_output) {
  TOPIL_REQUIRE(!cached_input_.empty(), "backward before forward");
  TOPIL_REQUIRE(grad_output.rows() == cached_input_.rows() &&
                    grad_output.cols() == out_,
                "dense layer gradient shape mismatch");
  // dW += x^T * dy; db += column sums of dy; dx = dy * W^T.
  const Matrix dw = cached_input_.matmul_transposed_self(grad_output);
  for (std::size_t i = 0; i < dw_.size(); ++i) {
    dw_.data()[i] += dw.data()[i];
  }
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    const float* g = grad_output.row(r);
    for (std::size_t c = 0; c < out_; ++c) db_[c] += g[c];
  }
  return grad_output.matmul_transposed_other(w_);
}

void DenseLayer::zero_grad() {
  dw_.fill(0.0f);
  for (float& x : db_) x = 0.0f;
}

float* DenseLayer::param(std::size_t i) {
  TOPIL_REQUIRE(i < num_params(), "parameter index out of range");
  if (i < w_.size()) return w_.data() + i;
  return b_.data() + (i - w_.size());
}

float DenseLayer::grad(std::size_t i) const {
  TOPIL_REQUIRE(i < num_params(), "parameter index out of range");
  if (i < dw_.size()) return dw_.data()[i];
  return db_[i - dw_.size()];
}

Matrix ReluLayer::forward(const Matrix& input) {
  cached_input_ = input;
  return forward_inference(input);
}

Matrix ReluLayer::forward_inference(const Matrix& input) {
  Matrix out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out.data()[i] < 0.0f) out.data()[i] = 0.0f;
  }
  return out;
}

Matrix ReluLayer::backward(const Matrix& grad_output) const {
  TOPIL_REQUIRE(!cached_input_.empty(), "backward before forward");
  TOPIL_REQUIRE(grad_output.rows() == cached_input_.rows() &&
                    grad_output.cols() == cached_input_.cols(),
                "relu gradient shape mismatch");
  Matrix out = grad_output;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (cached_input_.data()[i] <= 0.0f) out.data()[i] = 0.0f;
  }
  return out;
}

}  // namespace topil::nn
