#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "nn/mlp.hpp"

namespace topil::nn {

/// Scalar reference forward of a whole network: nn::dense_forward_reference
/// per layer, ReLU on hidden layers, linear output. Every production
/// forward (Mlp::predict_into, Mlp::forward, CompiledModel inference) runs
/// the fused kernel and must match this bit for bit.
inline Matrix reference_predict(const Mlp& model, const Matrix& input) {
  const std::vector<DenseLayer>& layers = model.layers();
  std::vector<float> bt;
  Matrix x = input;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    Matrix y;
    dense_forward_reference(x, layers[i].weights(), layers[i].bias(), y, bt,
                            /*relu=*/i + 1 < layers.size());
    x = std::move(y);
  }
  return x;
}

inline std::uint32_t float_bits(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

inline void expect_bits_equal(const Matrix& got, const Matrix& want,
                              const std::string& label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(float_bits(got.data()[i]), float_bits(want.data()[i]))
        << label << " element " << i;
  }
}

inline void expect_bits_equal(const std::vector<float>& got,
                              const std::vector<float>& want,
                              const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(float_bits(got[i]), float_bits(want[i]))
        << label << " element " << i;
  }
}

}  // namespace topil::nn
