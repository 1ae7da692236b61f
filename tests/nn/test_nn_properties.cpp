// Parameterized property sweeps over the NN stack: determinism,
// save/load equivalence, and gradient correctness across topologies.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"

namespace topil::nn {
namespace {

struct TopoCase {
  std::size_t inputs;
  std::vector<std::size_t> hidden;
  std::size_t outputs;
};

class MlpTopologySweep : public ::testing::TestWithParam<int> {
 protected:
  static TopoCase make_case(int index) {
    switch (index) {
      case 0:
        return {3, {}, 2};           // linear
      case 1:
        return {5, {8}, 1};          // shallow
      case 2:
        return {21, {64, 64}, 8};    // half the paper network
      case 3:
        return {4, {6, 5, 4}, 3};    // ragged widths
      default:
        return {2, {16, 16, 16, 16, 16, 16}, 2};  // deep
    }
  }

  Topology topo() const {
    const TopoCase c = make_case(GetParam());
    Topology t;
    t.inputs = c.inputs;
    t.hidden = c.hidden;
    t.outputs = c.outputs;
    return t;
  }

  Matrix random_batch(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) const {
    Matrix m(rows, cols);
    Rng rng(seed);
    for (std::size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<float>(rng.uniform(-1, 1));
    }
    return m;
  }
};

TEST_P(MlpTopologySweep, InitIsDeterministicAndFinite) {
  Mlp a(topo());
  Mlp b(topo());
  a.init(77);
  b.init(77);
  const auto wa = a.save_weights();
  const auto wb = b.save_weights();
  EXPECT_EQ(wa, wb);
  for (float w : wa) {
    EXPECT_TRUE(std::isfinite(w));
  }
}

TEST_P(MlpTopologySweep, SaveLoadPreservesOutputs) {
  Mlp a(topo());
  a.init(5);
  Mlp b(topo());
  b.init(6);
  b.load_weights(a.save_weights());
  const Matrix x = random_batch(3, topo().inputs, 9);
  const Matrix ya = a.predict(x);
  const Matrix yb = b.predict(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST_P(MlpTopologySweep, GradientsMatchFiniteDifferences) {
  Mlp model(topo());
  model.init(13);
  const Matrix x = random_batch(2, topo().inputs, 3);
  const Matrix target = random_batch(2, topo().outputs, 4);

  model.zero_grad();
  TrainingWorkspace ws;
  Matrix grad;
  mse_gradient(model.forward(x, ws), target, grad);
  model.backward(x, grad, ws);

  const float eps = 1e-3f;
  const auto check = [&](float& p, float analytic) {
    const float orig = p;
    p = orig + eps;
    const double hi = mse(model.predict(x), target);
    p = orig - eps;
    const double lo = mse(model.predict(x), target);
    p = orig;
    EXPECT_NEAR(analytic, (hi - lo) / (2 * eps), 5e-3);
  };
  // Flat parameter index i is weight i, or bias i - weights().size().
  for (auto& layer : model.layers()) {
    const std::size_t n_w = layer.weights().size();
    const std::size_t n = layer.num_params();
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 5)) {
      if (i < n_w) {
        check(layer.weights().data()[i], layer.weight_grad().data()[i]);
      } else {
        check(layer.bias()[i - n_w], layer.bias_grad()[i - n_w]);
      }
    }
  }
}

TEST_P(MlpTopologySweep, BatchInferenceMatchesRowByRow) {
  Mlp model(topo());
  model.init(21);
  const Matrix batch = random_batch(5, topo().inputs, 8);
  const Matrix full = model.predict(batch);
  for (std::size_t r = 0; r < 5; ++r) {
    Matrix row(1, topo().inputs);
    for (std::size_t c = 0; c < topo().inputs; ++c) {
      row.at(0, c) = batch.at(r, c);
    }
    const Matrix y = model.predict(row);
    for (std::size_t c = 0; c < topo().outputs; ++c) {
      EXPECT_FLOAT_EQ(y.at(0, c), full.at(r, c)) << "row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, MlpTopologySweep,
                         ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace topil::nn
