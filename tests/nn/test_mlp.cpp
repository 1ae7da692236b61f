#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "nn/loss.hpp"

namespace topil::nn {
namespace {

Topology paper_topology() {
  Topology t;
  t.inputs = 21;
  t.hidden = {64, 64, 64, 64};
  t.outputs = 8;
  return t;
}

TEST(Mlp, PaperTopologyParameterCount) {
  Mlp model(paper_topology());
  // 21*64+64 + 3*(64*64+64) + 64*8+8 = 14,536 parameters.
  EXPECT_EQ(model.num_params(),
            21u * 64 + 64 + 3 * (64 * 64 + 64) + 64 * 8 + 8);
  EXPECT_EQ(model.layers().size(), 5u);
}

TEST(Mlp, DeterministicInitForSameSeed) {
  Mlp a(paper_topology());
  Mlp b(paper_topology());
  a.init(11);
  b.init(11);
  EXPECT_EQ(a.save_weights(), b.save_weights());
  b.init(12);
  EXPECT_NE(a.save_weights(), b.save_weights());
}

TEST(Mlp, PredictMatchesForward) {
  Mlp model(paper_topology());
  model.init(5);
  Matrix x(3, 21);
  Rng rng(2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  TrainingWorkspace ws;
  const Matrix& a = model.forward(x, ws);
  const Matrix b = model.predict(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Mlp, SaveLoadWeightsRoundTrip) {
  Mlp a(paper_topology());
  a.init(9);
  Mlp b(paper_topology());
  b.init(10);
  b.load_weights(a.save_weights());
  Matrix x(1, 21, 0.3f);
  const Matrix ya = a.predict(x);
  const Matrix yb = b.predict(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya.data()[i], yb.data()[i]);
  }
  EXPECT_THROW(b.load_weights(std::vector<float>(3)), InvalidArgument);
}

TEST(Mlp, GradientCheckThroughWholeNetwork) {
  Topology t;
  t.inputs = 4;
  t.hidden = {5, 5};
  t.outputs = 3;
  Mlp model(t);
  model.init(21);

  Matrix x(2, 4);
  Matrix target(2, 3);
  Rng rng(8);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  for (std::size_t i = 0; i < target.size(); ++i) {
    target.data()[i] = static_cast<float>(rng.uniform(-1, 1));
  }

  model.zero_grad();
  TrainingWorkspace ws;
  Matrix grad;
  mse_gradient(model.forward(x, ws), target, grad);
  model.backward(x, grad, ws);

  // Finite differences on a sample of weights and biases in every layer,
  // through the flat views the optimizer updates.
  const float eps = 1e-3f;
  const auto check = [&](float& p, float analytic) {
    const float orig = p;
    p = orig + eps;
    const double hi = mse(model.predict(x), target);
    p = orig - eps;
    const double lo = mse(model.predict(x), target);
    p = orig;
    EXPECT_NEAR(analytic, (hi - lo) / (2 * eps), 2e-3);
  };
  // Flat parameter index i is weight i, or bias i - weights().size().
  for (auto& layer : model.layers()) {
    const std::size_t n_w = layer.weights().size();
    const std::size_t n = layer.num_params();
    for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 7)) {
      if (i < n_w) {
        check(layer.weights().data()[i], layer.weight_grad().data()[i]);
      } else {
        check(layer.bias()[i - n_w], layer.bias_grad()[i - n_w]);
      }
    }
  }
}

TEST(Mlp, BackwardWithoutForwardThrows) {
  Topology t;
  t.inputs = 2;
  t.hidden = {3};
  t.outputs = 1;
  Mlp model(t);
  model.init(1);
  TrainingWorkspace ws;
  const Matrix x(4, 2, 1.0f);
  const Matrix grad(4, 1, 1.0f);
  EXPECT_THROW(model.backward(x, grad, ws), InvalidArgument);
  model.forward(x, ws);
  EXPECT_THROW(model.backward(Matrix(2, 2, 1.0f), grad, ws),
               InvalidArgument);
  EXPECT_NO_THROW(model.backward(x, grad, ws));
}

TEST(Mlp, NoHiddenLayersIsLinearModel) {
  Topology t;
  t.inputs = 2;
  t.outputs = 1;
  Mlp model(t);
  EXPECT_EQ(model.layers().size(), 1u);
  model.init(1);
  // Linear: f(2x) - f(0) == 2 * (f(x) - f(0)).
  Matrix x0(1, 2, 0.0f);
  Matrix x1(1, 2, 1.0f);
  Matrix x2(1, 2, 2.0f);
  const double f0 = model.predict(x0).at(0, 0);
  const double f1 = model.predict(x1).at(0, 0);
  const double f2 = model.predict(x2).at(0, 0);
  EXPECT_NEAR(f2 - f0, 2 * (f1 - f0), 1e-5);
}

TEST(Mlp, ValidatesTopology) {
  Topology bad;
  bad.inputs = 0;
  bad.outputs = 1;
  EXPECT_THROW(Mlp{bad}, InvalidArgument);
  bad.inputs = 1;
  bad.outputs = 0;
  EXPECT_THROW(Mlp{bad}, InvalidArgument);
  bad.outputs = 1;
  bad.hidden = {0};
  EXPECT_THROW(Mlp{bad}, InvalidArgument);
}

TEST(MseLoss, ValueAndGradient) {
  Matrix pred(1, 2);
  pred.at(0, 0) = 1.0f;
  pred.at(0, 1) = 3.0f;
  Matrix target(1, 2);
  target.at(0, 0) = 0.0f;
  target.at(0, 1) = 1.0f;
  EXPECT_NEAR(mse(pred, target), (1.0 + 4.0) / 2.0, 1e-9);
  Matrix g;
  mse_gradient(pred, target, g);
  EXPECT_FLOAT_EQ(g.at(0, 0), 2.0f * 1.0f / 2.0f);
  EXPECT_FLOAT_EQ(g.at(0, 1), 2.0f * 2.0f / 2.0f);
  Matrix wrong(2, 1);
  EXPECT_THROW(mse(pred, wrong), InvalidArgument);
}

}  // namespace
}  // namespace topil::nn
