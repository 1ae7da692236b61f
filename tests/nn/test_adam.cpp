#include "nn/adam.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "nn/loss.hpp"

namespace topil::nn {
namespace {

Topology tiny() {
  Topology t;
  t.inputs = 2;
  t.hidden = {8};
  t.outputs = 1;
  return t;
}

TEST(Adam, FirstStepMovesByLearningRate) {
  // With bias correction, the very first Adam step has magnitude ~lr for
  // any nonzero gradient.
  Topology t;
  t.inputs = 1;
  t.outputs = 1;
  Mlp model(t);
  model.init(1);
  const std::vector<float> before = model.save_weights();

  Matrix x(1, 1, 1.0f);
  Matrix target(1, 1, 100.0f);  // large error -> all gradients nonzero
  model.zero_grad();
  TrainingWorkspace ws;
  Matrix grad;
  mse_gradient(model.forward(x, ws), target, grad);
  model.backward(x, grad, ws);

  Adam opt(model);
  opt.step(0.01);
  const std::vector<float> after = model.save_weights();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(std::abs(after[i] - before[i]), 0.01, 1e-4) << i;
  }
  EXPECT_EQ(opt.steps_taken(), 1u);
}

TEST(Adam, ConvergesOnLinearRegression) {
  // y = 2*x0 - 3*x1 + 1; a linear model must fit it to ~zero loss.
  Topology t;
  t.inputs = 2;
  t.outputs = 1;
  Mlp model(t);
  model.init(4);
  Adam opt(model);

  Rng rng(5);
  Matrix x(64, 2);
  Matrix y(64, 1);
  for (std::size_t r = 0; r < 64; ++r) {
    const double a = rng.uniform(-1, 1);
    const double b = rng.uniform(-1, 1);
    x.at(r, 0) = static_cast<float>(a);
    x.at(r, 1) = static_cast<float>(b);
    y.at(r, 0) = static_cast<float>(2 * a - 3 * b + 1);
  }
  double loss = 0.0;
  TrainingWorkspace ws;
  Matrix grad;
  for (int i = 0; i < 500; ++i) {
    model.zero_grad();
    const Matrix& pred = model.forward(x, ws);
    loss = mse(pred, y);
    mse_gradient(pred, y, grad);
    model.backward(x, grad, ws);
    opt.step(0.05);
  }
  EXPECT_LT(loss, 1e-4);
}

TEST(Adam, BeatsPlainScaleOnIllConditionedProblem) {
  // Feature scales differ by 100x; Adam's per-parameter normalization
  // must still converge in a modest step budget.
  Topology t;
  t.inputs = 2;
  t.outputs = 1;
  Mlp model(t);
  model.init(4);
  Adam opt(model);
  Rng rng(6);
  Matrix x(64, 2);
  Matrix y(64, 1);
  for (std::size_t r = 0; r < 64; ++r) {
    const double a = rng.uniform(-0.01, 0.01);
    const double b = rng.uniform(-1, 1);
    x.at(r, 0) = static_cast<float>(a);
    x.at(r, 1) = static_cast<float>(b);
    y.at(r, 0) = static_cast<float>(10 * a + b);
  }
  double loss = 0.0;
  TrainingWorkspace ws;
  Matrix grad;
  for (int i = 0; i < 1500; ++i) {
    model.zero_grad();
    const Matrix& pred = model.forward(x, ws);
    loss = mse(pred, y);
    mse_gradient(pred, y, grad);
    model.backward(x, grad, ws);
    opt.step(0.03);
  }
  EXPECT_LT(loss, 1e-3);
}

TEST(Adam, ResetClearsMoments) {
  Mlp model(tiny());
  model.init(2);
  Adam opt(model);
  Matrix x(1, 2, 1.0f);
  Matrix y(1, 1, 5.0f);
  model.zero_grad();
  TrainingWorkspace ws;
  Matrix grad;
  mse_gradient(model.forward(x, ws), y, grad);
  model.backward(x, grad, ws);
  opt.step(0.01);
  opt.reset();
  EXPECT_EQ(opt.steps_taken(), 0u);
}

TEST(Adam, ValidatesConfigAndLearningRate) {
  Mlp model(tiny());
  Adam::Config bad;
  bad.beta1 = 1.0;
  EXPECT_THROW(Adam(model, bad), InvalidArgument);
  Adam opt(model);
  EXPECT_THROW(opt.step(0.0), InvalidArgument);
}

}  // namespace
}  // namespace topil::nn
