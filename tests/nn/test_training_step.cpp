// Bitwise tests of the training step: the SIMD backward kernels and the
// Adam kernel against the scalar reference.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "../common/simd_isas.hpp"
#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/reference_training.hpp"
#include "nn/simd_kernels.hpp"
#include "reference_forward.hpp"

namespace topil::nn {
namespace {

/// About a third exact +0.0f, a sixth -0.0f, the rest Gaussian: the zero
/// skip of the weight gradient and the ReLU mask see both signed zeros.
Matrix input_with_zeros(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const int pick = rng.uniform_int(0, 5);
    m.data()[i] = pick < 2    ? 0.0f
                  : pick == 2 ? -0.0f
                              : static_cast<float>(rng.gaussian(0.0, 1.0));
  }
  return m;
}

/// Gaussian upstream gradient with subnormals, infinities and NaN mixed in.
Matrix adversarial_grad(std::size_t rows, std::size_t cols, Rng& rng) {
  const float specials[] = {1e-40f,
                            -1e-40f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] =
        rng.uniform_int(0, 15) == 0
            ? specials[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<int>(std::size(specials)) - 1))]
            : static_cast<float>(rng.gaussian(0.0, 1.0));
  }
  return m;
}

/// Bitwise equality, except that a NaN only has to meet a NaN. IEEE 754
/// leaves open which NaN an add of two NaNs returns: x86 returns the first
/// operand, and the compiler orders the operands of a commutative add as it
/// likes, so a kernel may return a differently signed NaN than the
/// reference. Every other bit, and where NaN appears, must match.
void expect_bits_equal_nan_as_nan(const float* got, const float* want,
                                  std::size_t n, const std::string& label) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    ASSERT_EQ(float_bits(got[i]), float_bits(want[i]))
        << label << " element " << i;
  }
}

// DenseLayer::backward at the dispatched variant, then the backward kernels
// called directly on every instruction-set variant this CPU runs, against
// dense_backward_reference and its ReLU mask pass. `transposed` and
// `layer_dx` live across shapes, so the layer's scratch and its resize of
// the input gradient grow and shrink.
TEST(DenseBackwardSimd, BitIdenticalToReferenceOverShapes) {
  const std::size_t widths[] = {1, 3, 8, 21, 33, 64, 70};
  const std::size_t batches[] = {1, 7, 64, 128, 130};
  Rng rng(20261017);
  std::vector<float> transposed;
  Matrix layer_dx;
  for (const std::size_t in : widths) {
    for (const std::size_t out : widths) {
      for (const std::size_t rows : batches) {
        const std::string shape = std::to_string(rows) + "x" +
                                  std::to_string(in) + "->" +
                                  std::to_string(out);
        DenseLayer layer(in, out);
        layer.init(rng);
        const Matrix& w = layer.weights();
        std::vector<float> w_t(out * in);
        for (std::size_t k = 0; k < in; ++k) {
          for (std::size_t j = 0; j < out; ++j) w_t[j * in + k] = w.row(k)[j];
        }
        const Matrix x = input_with_zeros(rows, in, rng);
        // Two backward calls without zeroing: both accumulate.
        const Matrix dy[2] = {adversarial_grad(rows, out, rng),
                              adversarial_grad(rows, out, rng)};
        Matrix want_dw(in, out);
        std::vector<float> want_db(out, 0.0f);
        Matrix want_dx[2];
        for (int call = 0; call < 2; ++call) {
          dense_backward_reference(x, w, dy[call], want_dw, want_db,
                                   &want_dx[call]);
          for (std::size_t e = 0; e < want_dx[call].size(); ++e) {
            if (x.data()[e] <= 0.0f) want_dx[call].data()[e] = 0.0f;
          }
        }

        layer.zero_grad();
        for (int call = 0; call < 2; ++call) {
          layer.backward(x, dy[call], &layer_dx, transposed);
          ASSERT_EQ(layer_dx.rows(), rows) << shape;
          ASSERT_EQ(layer_dx.cols(), in) << shape;
          expect_bits_equal_nan_as_nan(layer_dx.data(), want_dx[call].data(),
                                       layer_dx.size(), shape + " layer dx");
        }
        expect_bits_equal_nan_as_nan(layer.weight_grad().data(),
                                     want_dw.data(), want_dw.size(),
                                     shape + " layer dW");
        expect_bits_equal_nan_as_nan(layer.bias_grad().data(), want_db.data(),
                                     want_db.size(), shape + " layer db");

        for (const SimdIsa isa : executable_isas()) {
          const std::string label = isa_name(isa) + ", " + shape;
          Matrix dw(in, out);
          std::vector<float> db(out, 0.0f);
          Matrix dx(rows, in);
          for (int call = 0; call < 2; ++call) {
            dense_weight_grad_simd(x.data(), rows, in, dy[call].data(), out,
                                   dw.data(), db.data(), isa);
            dense_input_grad_simd(dy[call].data(), rows, out, w_t.data(),
                                  x.data(), in, dx.data(), isa);
            expect_bits_equal_nan_as_nan(dx.data(), want_dx[call].data(),
                                         dx.size(), label + " dx");
          }
          expect_bits_equal_nan_as_nan(dw.data(), want_dw.data(), dw.size(),
                                       label + " dW");
          expect_bits_equal_nan_as_nan(db.data(), want_db.data(), db.size(),
                                       label + " db");
        }
        if (HasFatalFailure()) return;
      }
    }
  }
}

Matrix gaussian(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
  }
  return m;
}

/// Three forward/backward/Adam rounds with one reused workspace (batch 128,
/// then a ragged 7, then 128 again), each compared bit for bit with the
/// scalar reference: prediction, every gradient, and the updated weights.
void expect_steps_match_reference(const Topology& topology,
                                  std::uint64_t seed) {
  Mlp model(topology);
  model.init(seed);
  ReferenceTraining reference(model);
  Adam adam(model);
  TrainingWorkspace ws;
  Matrix grad;
  Rng rng(seed + 1);
  const std::size_t batches[] = {128, 7, 128};
  for (std::size_t round = 0; round < std::size(batches); ++round) {
    const std::string label = "round " + std::to_string(round);
    const Matrix x = gaussian(batches[round], topology.inputs, rng);
    const Matrix target = gaussian(batches[round], topology.outputs, rng);
    const Matrix want = reference.forward_backward(x, target);

    model.zero_grad();
    const Matrix& prediction = model.forward(x, ws);
    expect_bits_equal(prediction, want, label + " prediction");
    mse_gradient(prediction, target, grad);
    model.backward(x, grad, ws);
    for (std::size_t l = 0; l < model.layers().size(); ++l) {
      const std::string layer = label + " layer " + std::to_string(l);
      expect_bits_equal(model.layers()[l].weight_grad(),
                        reference.weight_grad(l), layer + " dW");
      expect_bits_equal(model.layers()[l].bias_grad(), reference.bias_grad(l),
                        layer + " db");
    }

    adam.step(0.01);
    reference.adam_step(0.01);
    expect_bits_equal(model.save_weights(), reference.weights(),
                      label + " weights after Adam");
  }
}

TEST(TrainingStep, PolicyNetMatchesScalarReference) {
  expect_steps_match_reference(Topology{21, {64, 64, 64, 64}, 8}, 31);
}

TEST(TrainingStep, NetWithoutHiddenLayerMatchesScalarReference) {
  expect_steps_match_reference(Topology{21, {}, 8}, 32);
}

// The Adam kernel, called directly on every instruction-set variant this
// CPU runs over all of a net's parameters at once (a ragged count), against
// ReferenceTraining's Adam for three steps.
TEST(AdamSimd, EveryIsaMatchesScalarReference) {
  const Topology topology{21, {64, 33}, 8};
  Mlp model(topology);
  model.init(41);
  const Adam::Config config;
  for (const SimdIsa isa : executable_isas()) {
    ReferenceTraining reference(model);
    std::vector<float> params = reference.weights();
    std::vector<float> m(params.size(), 0.0f);
    std::vector<float> v(params.size(), 0.0f);
    Rng rng(42);
    for (int t = 1; t <= 3; ++t) {
      reference.forward_backward(gaussian(7, topology.inputs, rng),
                                 gaussian(7, topology.outputs, rng));
      std::vector<float> grad;
      for (std::size_t l = 0; l < model.layers().size(); ++l) {
        const Matrix& dw = reference.weight_grad(l);
        grad.insert(grad.end(), dw.data(), dw.data() + dw.size());
        const std::vector<float>& db = reference.bias_grad(l);
        grad.insert(grad.end(), db.begin(), db.end());
      }
      const AdamCoefficients c{
          .beta1 = config.beta1,
          .beta2 = config.beta2,
          .bias_correction1 = 1.0 - std::pow(config.beta1, t),
          .bias_correction2 = 1.0 - std::pow(config.beta2, t),
          .learning_rate = 0.01,
          .epsilon = config.epsilon};
      adam_update_simd(params.data(), grad.data(), m.data(), v.data(),
                       params.size(), c, isa);
      reference.adam_step(0.01);
      expect_bits_equal(params, reference.weights(),
                        isa_name(isa) + ", step " + std::to_string(t));
    }
  }
}

}  // namespace
}  // namespace topil::nn
