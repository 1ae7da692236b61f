#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace topil::nn {
namespace {

// Smooth nonlinear target a 1-hidden-layer net can approximate.
void make_dataset(std::size_t n, Matrix& x, Matrix& y, std::uint64_t seed) {
  x = Matrix(n, 2);
  y = Matrix(n, 1);
  Rng rng(seed);
  for (std::size_t r = 0; r < n; ++r) {
    const double a = rng.uniform(-1, 1);
    const double b = rng.uniform(-1, 1);
    x.at(r, 0) = static_cast<float>(a);
    x.at(r, 1) = static_cast<float>(b);
    y.at(r, 0) = static_cast<float>(std::sin(2 * a) + 0.5 * b);
  }
}

Topology small() {
  Topology t;
  t.inputs = 2;
  t.hidden = {16, 16};
  t.outputs = 1;
  return t;
}

TEST(Trainer, LearnsNonlinearFunction) {
  Matrix x, y;
  make_dataset(512, x, y, 1);
  Mlp model(small());
  TrainerConfig config;
  config.max_epochs = 60;
  config.seed = 3;
  Trainer trainer(config);
  const TrainResult result = trainer.fit(model, x, y);
  EXPECT_LT(result.best_validation_loss, 0.01);
  EXPECT_GE(result.epochs_run, 1u);
  EXPECT_EQ(result.train_loss_history.size(), result.epochs_run);
  EXPECT_EQ(result.validation_loss_history.size(), result.epochs_run);
}

TEST(Trainer, LossDecreasesOverTraining) {
  Matrix x, y;
  make_dataset(256, x, y, 2);
  Mlp model(small());
  TrainerConfig config;
  config.max_epochs = 30;
  config.patience = 30;
  Trainer trainer(config);
  const TrainResult result = trainer.fit(model, x, y);
  EXPECT_LT(result.train_loss_history.back(),
            result.train_loss_history.front() * 0.5);
}

TEST(Trainer, EarlyStoppingTriggersOnPlateau) {
  // A target of pure noise: validation cannot improve for long, so early
  // stopping must end training well before max_epochs.
  Matrix x(128, 2);
  Matrix y(128, 1);
  Rng rng(4);
  for (std::size_t r = 0; r < 128; ++r) {
    x.at(r, 0) = static_cast<float>(rng.uniform(-1, 1));
    x.at(r, 1) = static_cast<float>(rng.uniform(-1, 1));
    y.at(r, 0) = static_cast<float>(rng.gaussian(0, 1));
  }
  Mlp model(small());
  TrainerConfig config;
  config.max_epochs = 500;
  config.patience = 5;
  Trainer trainer(config);
  const TrainResult result = trainer.fit(model, x, y);
  EXPECT_LT(result.epochs_run, 200u);
}

TEST(Trainer, RestoresBestWeightsNotLastWeights) {
  Matrix x, y;
  make_dataset(256, x, y, 5);
  Mlp model(small());
  TrainerConfig config;
  config.max_epochs = 40;
  config.patience = 40;
  Trainer trainer(config);
  const TrainResult result = trainer.fit(model, x, y);
  // The model must evaluate at (or very near) the best recorded epoch loss
  // on a re-split of the same data distribution.
  Matrix vx, vy;
  make_dataset(256, vx, vy, 6);
  const double loss = Trainer::evaluate(model, vx, vy);
  EXPECT_LT(loss, result.best_validation_loss * 3 + 0.02);
  EXPECT_LE(result.best_epoch, result.epochs_run);
}

TEST(Trainer, DeterministicForSameSeed) {
  Matrix x, y;
  make_dataset(128, x, y, 7);
  TrainerConfig config;
  config.max_epochs = 10;
  config.seed = 9;
  Mlp a(small());
  Mlp b(small());
  Trainer(config).fit(a, x, y);
  Trainer(config).fit(b, x, y);
  EXPECT_EQ(a.save_weights(), b.save_weights());
}

void expect_same_fit(const Mlp& got, const TrainResult& got_result,
                     const Mlp& want, const TrainResult& want_result) {
  const std::vector<float> a = got.save_weights();
  const std::vector<float> b = want.save_weights();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  EXPECT_EQ(got_result.epochs_run, want_result.epochs_run);
  EXPECT_EQ(got_result.best_epoch, want_result.best_epoch);
  const auto same_bits = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_bits(got_result.train_loss_history,
                        want_result.train_loss_history));
  EXPECT_TRUE(same_bits(got_result.validation_loss_history,
                        want_result.validation_loss_history));
}

// Nothing of one fit may leak into the next: refitting a trained model, or
// fitting a copy of one, must reproduce a fresh model's fit bit for bit.
// 150 rows leave 120 training rows, so every epoch ends on a ragged batch.
TEST(Trainer, RefitAndCopyMatchFreshFitBitwise) {
  Matrix x, y;
  make_dataset(150, x, y, 11);
  TrainerConfig config;
  config.max_epochs = 4;
  config.batch_size = 32;
  config.seed = 5;

  Mlp fresh(small());
  const TrainResult want = Trainer(config).fit(fresh, x, y);

  Mlp model(small());
  Trainer(config).fit(model, x, y);
  Mlp copy = model;
  const TrainResult refit = Trainer(config).fit(model, x, y);
  expect_same_fit(model, refit, fresh, want);
  const TrainResult copy_fit = Trainer(config).fit(copy, x, y);
  expect_same_fit(copy, copy_fit, fresh, want);
}

TEST(Trainer, SeedChangesResult) {
  Matrix x, y;
  make_dataset(128, x, y, 7);
  TrainerConfig c1;
  c1.max_epochs = 5;
  c1.seed = 1;
  TrainerConfig c2 = c1;
  c2.seed = 2;
  Mlp a(small());
  Mlp b(small());
  Trainer(c1).fit(a, x, y);
  Trainer(c2).fit(b, x, y);
  EXPECT_NE(a.save_weights(), b.save_weights());
}

TEST(Trainer, ValidatesInputs) {
  Mlp model(small());
  Matrix x(10, 3);  // wrong width
  Matrix y(10, 1);
  EXPECT_THROW(Trainer().fit(model, x, y), InvalidArgument);
  Matrix x2(10, 2);
  Matrix y2(9, 1);  // row mismatch
  EXPECT_THROW(Trainer().fit(model, x2, y2), InvalidArgument);
  TrainerConfig bad;
  bad.validation_fraction = 1.5;
  EXPECT_THROW(Trainer{bad}, InvalidArgument);
}

}  // namespace
}  // namespace topil::nn
