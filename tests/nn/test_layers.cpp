#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace topil::nn {
namespace {

TEST(DenseLayer, ForwardComputesAffineMap) {
  DenseLayer layer(2, 3);
  // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5, 1].
  float w[] = {1, 2, 3, 4, 5, 6};
  for (std::size_t i = 0; i < 6; ++i) layer.weights().data()[i] = w[i];
  layer.bias() = {0.5f, -0.5f, 1.0f};

  Matrix x(1, 2);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 2.0f;
  Matrix y;
  layer.forward_into(x, y, /*relu=*/false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 + 8 + 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2 + 10 - 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 3 + 12 + 1.0f);
}

TEST(DenseLayer, InitBoundsFollowGlorot) {
  DenseLayer layer(64, 64);
  Rng rng(1);
  layer.init(rng);
  const double limit = std::sqrt(6.0 / 128.0);
  bool nonzero = false;
  for (std::size_t i = 0; i < layer.weights().size(); ++i) {
    const float v = layer.weights().data()[i];
    EXPECT_LE(std::abs(v), limit + 1e-6);
    nonzero |= (v != 0.0f);
  }
  EXPECT_TRUE(nonzero);
  for (float b : layer.bias()) EXPECT_FLOAT_EQ(b, 0.0f);
}

// Finite-difference gradient check — the canonical correctness test for
// backprop. Loss = sum(y) for y = x * W + b, where x = relu(z) is a hidden
// layer's input, so the input gradient is dLoss/dz.
TEST(DenseLayer, GradientsMatchFiniteDifferences) {
  DenseLayer layer(3, 2);
  Rng rng(7);
  layer.init(rng);
  Matrix x(2, 3);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = std::max(0.0f, static_cast<float>(rng.uniform(-1, 1)));
  }

  auto loss = [&]() {
    Matrix y;
    layer.forward_into(x, y, /*relu=*/false);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) acc += y.data()[i];
    return acc;
  };

  layer.zero_grad();
  Matrix dy(2, 2, 1.0f);  // dLoss/dy = 1
  Matrix dx;
  std::vector<float> transposed;
  layer.backward(x, dy, &dx, transposed);

  const float eps = 1e-3f;
  const auto check = [&](float& p, float grad, const char* what,
                         std::size_t i) {
    const float orig = p;
    p = orig + eps;
    const double hi = loss();
    p = orig - eps;
    const double lo = loss();
    p = orig;
    EXPECT_NEAR(grad, (hi - lo) / (2 * eps), 1e-2) << what << " " << i;
  };
  for (std::size_t i = 0; i < layer.weights().size(); ++i) {
    check(layer.weights().data()[i], layer.weight_grad().data()[i], "w", i);
  }
  for (std::size_t i = 0; i < layer.bias().size(); ++i) {
    check(layer.bias()[i], layer.bias_grad()[i], "b", i);
  }

  // Input gradient: dLoss/dz[r][c] = sum_j W[c][j] where x > 0, else 0.
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      float expected = 0.0f;
      for (std::size_t j = 0; j < 2; ++j) expected += layer.weights().at(c, j);
      if (x.at(r, c) <= 0.0f) expected = 0.0f;
      EXPECT_NEAR(dx.at(r, c), expected, 1e-5);
    }
  }
}

TEST(DenseLayer, GradAccumulatesAcrossBackwardCalls) {
  DenseLayer layer(2, 2);
  Rng rng(3);
  layer.init(rng);
  Matrix x(1, 2, 1.0f);
  Matrix dy(1, 2, 1.0f);
  std::vector<float> transposed;
  layer.zero_grad();
  layer.backward(x, dy, nullptr, transposed);
  const float once = layer.weight_grad().data()[0];
  layer.backward(x, dy, nullptr, transposed);
  EXPECT_NEAR(layer.weight_grad().data()[0], 2 * once, 1e-6);
  layer.zero_grad();
  EXPECT_FLOAT_EQ(layer.weight_grad().data()[0], 0.0f);
}

TEST(DenseLayer, ShapeValidation) {
  DenseLayer layer(3, 2);
  Matrix wrong(1, 4);
  Matrix y;
  EXPECT_THROW(layer.forward_into(wrong, y, /*relu=*/false),
               InvalidArgument);
  std::vector<float> transposed;
  EXPECT_THROW(layer.backward(Matrix(2, 3), Matrix(1, 2), nullptr,
                              transposed),
               InvalidArgument);
  EXPECT_THROW(DenseLayer(0, 2), InvalidArgument);
}

// The ReLU is fused into the dense kernels: the forward clamps in its
// store, and backward masks the input gradient by the layer input (the
// previous layer's ReLU output). An identity layer exposes both.
DenseLayer identity_layer(std::size_t width) {
  DenseLayer layer(width, width);
  for (std::size_t i = 0; i < width; ++i) layer.weights().at(i, i) = 1.0f;
  return layer;
}

TEST(FusedRelu, ForwardClampsNegatives) {
  const DenseLayer layer = identity_layer(4);
  Matrix x(1, 4);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 0.0f;
  x.at(0, 2) = 2.5f;
  x.at(0, 3) = -0.1f;
  Matrix y;
  layer.forward_into(x, y, /*relu=*/true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 3), 0.0f);
}

TEST(FusedRelu, BackwardMasksInactiveUnits) {
  DenseLayer layer = identity_layer(3);
  Matrix x(1, 3);
  x.at(0, 0) = -2.0f;
  x.at(0, 1) = 3.0f;
  x.at(0, 2) = 0.0f;
  Matrix dy(1, 3, 1.0f);
  Matrix dx;
  std::vector<float> transposed;
  layer.backward(x, dy, &dx, transposed);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 2), 0.0f);  // convention: gradient 0 at 0
}

}  // namespace
}  // namespace topil::nn
