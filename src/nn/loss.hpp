#pragma once

#include "nn/tensor.hpp"

namespace topil::nn {

/// Mean-squared-error loss over a batch, averaged over all elements.
double mse(const Matrix& prediction, const Matrix& target);

/// Gradient of the MSE loss w.r.t. the prediction, 2*(pred-target)/N,
/// written into `grad` (resized; its allocation is reused).
void mse_gradient(const Matrix& prediction, const Matrix& target,
                  Matrix& grad);

}  // namespace topil::nn
