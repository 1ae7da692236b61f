#include "nn/loss.hpp"

namespace topil::nn {

namespace {
void check_shapes(const Matrix& a, const Matrix& b) {
  TOPIL_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "loss shape mismatch");
  TOPIL_REQUIRE(a.size() > 0, "loss over empty batch");
}
}  // namespace

double mse(const Matrix& prediction, const Matrix& target) {
  check_shapes(prediction, target);
  double acc = 0.0;
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double d = static_cast<double>(prediction.data()[i]) -
                     static_cast<double>(target.data()[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(prediction.size());
}

void mse_gradient(const Matrix& prediction, const Matrix& target,
                  Matrix& grad) {
  check_shapes(prediction, target);
  grad.resize(prediction.rows(), prediction.cols());
  const float scale = 2.0f / static_cast<float>(prediction.size());
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    grad.data()[i] =
        scale * (prediction.data()[i] - target.data()[i]);
  }
}

}  // namespace topil::nn
