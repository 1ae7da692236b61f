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

void DenseLayer::forward_into(const Matrix& input, Matrix& out,
                              bool relu) const {
  TOPIL_REQUIRE(input.cols() == in_, "dense layer input width mismatch");
  TOPIL_REQUIRE(&out != &input, "dense layer output must not alias input");
  out.resize(input.rows(), out_);
  dense_forward_simd(input.data(), input.rows(), in_, w_.data(), b_.data(),
                     out_, out.data(), relu);
}

void DenseLayer::backward(const Matrix& input, const Matrix& grad_output,
                          Matrix* grad_input,
                          std::vector<float>& transposed) {
  TOPIL_REQUIRE(input.cols() == in_, "dense layer input width mismatch");
  TOPIL_REQUIRE(grad_output.rows() == input.rows() &&
                    grad_output.cols() == out_,
                "dense layer gradient shape mismatch");
  const std::size_t rows = input.rows();
  dense_weight_grad_simd(input.data(), rows, in_, grad_output.data(), out_,
                         dw_.data(), db_.data());
  if (grad_input == nullptr) return;
  TOPIL_REQUIRE(grad_input != &input && grad_input != &grad_output,
                "dense layer input gradient must not alias its operands");
  transposed.resize(out_ * in_);
  for (std::size_t k = 0; k < in_; ++k) {
    const float* w = w_.row(k);
    for (std::size_t j = 0; j < out_; ++j) transposed[j * in_ + k] = w[j];
  }
  grad_input->resize(rows, in_);
  dense_input_grad_simd(grad_output.data(), rows, out_, transposed.data(),
                        input.data(), in_, grad_input->data());
}

void DenseLayer::zero_grad() {
  dw_.fill(0.0f);
  for (float& x : db_) x = 0.0f;
}

}  // namespace topil::nn
