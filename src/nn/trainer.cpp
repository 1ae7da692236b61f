#include "nn/trainer.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/rng.hpp"

namespace topil::nn {

namespace {

/// Rows idx[begin, end) of `source` into `out` (resized; its allocation is
/// reused).
void gather_rows(const Matrix& source, const std::vector<std::size_t>& idx,
                 std::size_t begin, std::size_t end, Matrix& out) {
  TOPIL_ASSERT(begin < end && end <= idx.size(), "bad gather range");
  out.resize(end - begin, source.cols());
  for (std::size_t r = begin; r < end; ++r) {
    const float* src = source.row(idx[r]);
    float* dst = out.row(r - begin);
    for (std::size_t c = 0; c < source.cols(); ++c) dst[c] = src[c];
  }
}

}  // namespace

Trainer::Trainer(TrainerConfig config) : config_(config) {
  TOPIL_REQUIRE(config.max_epochs > 0, "max_epochs must be positive");
  TOPIL_REQUIRE(config.batch_size > 0, "batch_size must be positive");
  TOPIL_REQUIRE(config.validation_fraction > 0.0 &&
                    config.validation_fraction < 1.0,
                "validation fraction must be in (0,1)");
}

double Trainer::evaluate(const Mlp& model, const Matrix& inputs,
                         const Matrix& targets) {
  return mse(model.predict(inputs), targets);
}

TrainResult Trainer::fit(Mlp& model, const Matrix& inputs,
                         const Matrix& targets) {
  TOPIL_REQUIRE(inputs.rows() == targets.rows(),
                "inputs/targets row count mismatch");
  TOPIL_REQUIRE(inputs.rows() >= 4, "dataset too small to train on");
  TOPIL_REQUIRE(inputs.cols() == model.topology().inputs,
                "input width does not match model");
  TOPIL_REQUIRE(targets.cols() == model.topology().outputs,
                "target width does not match model");

  Rng rng(config_.seed);
  model.init(config_.seed);
  Adam optimizer(model);

  // Shuffled train/validation split.
  std::vector<std::size_t> order(inputs.rows());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const auto n_val = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(config_.validation_fraction *
                          static_cast<double>(inputs.rows()))));
  const std::size_t n_train = inputs.rows() - n_val;
  TOPIL_REQUIRE(n_train >= 1, "no training rows after validation split");

  Matrix val_x;
  Matrix val_y;
  gather_rows(inputs, order, n_train, order.size(), val_x);
  gather_rows(targets, order, n_train, order.size(), val_y);

  std::vector<std::size_t> train_idx(order.begin(),
                                     order.begin() + n_train);

  TrainResult result;
  double best_val = std::numeric_limits<double>::infinity();
  std::vector<float> best_weights = model.save_weights();
  std::size_t epochs_since_best = 0;

  // Buffers reused by every batch and epoch: steady-state steps allocate
  // nothing.
  Matrix bx;
  Matrix by;
  Matrix grad;
  TrainingWorkspace train_ws;
  Matrix val_pred;
  InferenceWorkspace val_ws;

  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    rng.shuffle(train_idx);
    const double lr =
        config_.initial_lr *
        std::pow(config_.lr_decay, static_cast<double>(epoch));

    double train_loss_acc = 0.0;
    std::size_t train_batches = 0;
    for (std::size_t begin = 0; begin < n_train;
         begin += config_.batch_size) {
      const std::size_t end = std::min(begin + config_.batch_size, n_train);
      gather_rows(inputs, train_idx, begin, end, bx);
      gather_rows(targets, train_idx, begin, end, by);

      model.zero_grad();
      const Matrix& pred = model.forward(bx, train_ws);
      train_loss_acc += mse(pred, by);
      ++train_batches;
      mse_gradient(pred, by, grad);
      model.backward(bx, grad, train_ws);
      optimizer.step(lr);
    }

    const double train_loss =
        train_loss_acc / static_cast<double>(train_batches);
    model.predict_into(val_x, val_pred, val_ws);
    const double val_loss = mse(val_pred, val_y);
    result.train_loss_history.push_back(train_loss);
    result.validation_loss_history.push_back(val_loss);
    result.epochs_run = epoch + 1;
    result.final_train_loss = train_loss;

    if (config_.verbose) {
      std::printf("epoch %3zu  lr %.5f  train %.5f  val %.5f\n", epoch, lr,
                  train_loss, val_loss);
    }

    if (val_loss < best_val) {
      best_val = val_loss;
      best_weights = model.save_weights();
      result.best_epoch = epoch;
      epochs_since_best = 0;
    } else if (++epochs_since_best >= config_.patience) {
      break;  // early stopping
    }
  }

  model.load_weights(best_weights);
  result.best_validation_loss = best_val;
  return result;
}

}  // namespace topil::nn
