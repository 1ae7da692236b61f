#include "nn/simd_kernels.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "reference_forward.hpp"

namespace topil::nn {
namespace {

TEST(DenseForwardSimd, BitIdenticalToReferenceOverRaggedShapes) {
  Rng rng(20260809);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(1, 65));
    const std::size_t in = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const std::size_t out_cols =
        static_cast<std::size_t>(rng.uniform_int(1, 70));
    const bool relu = rng.uniform_int(0, 1) == 1;

    Matrix x(rows, in);
    Matrix w(in, out_cols);
    std::vector<float> bias(out_cols);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.5));
    }
    for (std::size_t i = 0; i < w.size(); ++i) {
      w.data()[i] = static_cast<float>(rng.gaussian(0.0, 0.8));
    }
    for (float& b : bias) b = static_cast<float>(rng.gaussian(0.0, 0.5));

    Matrix want;
    std::vector<float> bt;
    dense_forward_reference(x, w, bias, want, bt, relu);

    Matrix got(rows, out_cols);
    dense_forward_simd(x.data(), rows, in, w.data(), bias.data(), out_cols,
                       got.data(), relu);
    expect_bits_equal(got, want,
                      "shape " + std::to_string(rows) + "x" +
                          std::to_string(in) + "x" +
                          std::to_string(out_cols));
  }
}

TEST(DenseForwardSimd, AdversarialValuesMatchBitwise) {
  // Subnormals, signed zeros, huge magnitudes, and NaN all go through the
  // same operation sequence, so even non-finite results must match
  // bit-for-bit (the ReLU keeps -0.0 and NaN like the reference branch).
  const std::size_t rows = 5;
  const std::size_t in = 7;
  const std::size_t out_cols = 9;
  const float specials[] = {0.0f,    -0.0f,   1e-40f, -1e-40f, 65504.0f,
                            -65504.0f, 3e38f, 1.0f,   -1.0f};
  Matrix x(rows, in);
  Matrix w(in, out_cols);
  std::vector<float> bias(out_cols);
  Rng rng(7);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = specials[static_cast<std::size_t>(
        rng.uniform_int(0, std::size(specials) - 1))];
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = specials[static_cast<std::size_t>(
        rng.uniform_int(0, std::size(specials) - 1))];
  }
  bias[0] = -0.0f;
  bias[1] = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t c = 2; c < out_cols; ++c) {
    bias[c] = specials[c % std::size(specials)];
  }

  for (const bool relu : {false, true}) {
    Matrix want;
    std::vector<float> bt;
    dense_forward_reference(x, w, bias, want, bt, relu);
    Matrix got(rows, out_cols);
    dense_forward_simd(x.data(), rows, in, w.data(), bias.data(), out_cols,
                       got.data(), relu);
    expect_bits_equal(got, want, relu ? "relu" : "linear");
  }
}

TEST(DenseForwardSimd, RejectsEmptyShapes) {
  float dummy = 0.0f;
  EXPECT_THROW(
      dense_forward_simd(&dummy, 0, 1, &dummy, &dummy, 1, &dummy, false),
      InvalidArgument);
  EXPECT_THROW(
      dense_forward_simd(&dummy, 1, 0, &dummy, &dummy, 1, &dummy, false),
      InvalidArgument);
  EXPECT_THROW(
      dense_forward_simd(&dummy, 1, 1, &dummy, &dummy, 0, &dummy, false),
      InvalidArgument);
}

TEST(MlpSimdKernel, PredictIntoBitIdenticalAcrossKernels) {
  Rng shapes(99);
  for (int trial = 0; trial < 12; ++trial) {
    Topology topology;
    topology.inputs = static_cast<std::size_t>(shapes.uniform_int(1, 33));
    const int depth = shapes.uniform_int(0, 3);
    for (int d = 0; d < depth; ++d) {
      topology.hidden.push_back(
          static_cast<std::size_t>(shapes.uniform_int(1, 48)));
    }
    topology.outputs = static_cast<std::size_t>(shapes.uniform_int(1, 17));

    Mlp model(topology);
    model.init(1234 + trial);

    const std::size_t rows =
        static_cast<std::size_t>(shapes.uniform_int(1, 40));
    Matrix input(rows, topology.inputs);
    Rng values(555 + trial);
    for (std::size_t i = 0; i < input.size(); ++i) {
      input.data()[i] = static_cast<float>(values.gaussian(0.0, 1.0));
    }

    Matrix out;
    InferenceWorkspace ws;
    model.predict_into(input, out, ws);
    expect_bits_equal(out, reference_predict(model, input),
                      "topology trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace topil::nn
