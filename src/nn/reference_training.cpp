#include "nn/reference_training.hpp"

#include <cmath>
#include <utility>

#include "nn/adam.hpp"
#include "nn/loss.hpp"

namespace topil::nn {

ReferenceTraining::ReferenceTraining(const Mlp& model) {
  for (const DenseLayer& layer : model.layers()) {
    const Matrix& w = layer.weights();
    layers_.push_back({w, layer.bias(), Matrix(w.rows(), w.cols()),
                       std::vector<float>(w.cols(), 0.0f)});
  }
  m_.assign(model.num_params(), 0.0f);
  v_.assign(model.num_params(), 0.0f);
}

Matrix ReferenceTraining::forward_backward(const Matrix& x,
                                           const Matrix& target) {
  std::vector<Matrix> inputs{x};
  std::vector<Matrix> pre_activations;
  std::vector<float> bt;
  Matrix prediction;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Matrix z;
    dense_forward_reference(inputs.back(), layers_[i].w, layers_[i].b, z, bt,
                            /*relu=*/false);
    if (i + 1 == layers_.size()) {
      prediction = std::move(z);
      break;
    }
    Matrix a = z;
    for (std::size_t e = 0; e < a.size(); ++e) {
      if (a.data()[e] < 0.0f) a.data()[e] = 0.0f;
    }
    pre_activations.push_back(std::move(z));
    inputs.push_back(std::move(a));
  }

  Matrix g;
  mse_gradient(prediction, target, g);
  for (Layer& layer : layers_) {
    layer.dw.fill(0.0f);
    for (float& d : layer.db) d = 0.0f;
  }
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Matrix dx;
    dense_backward_reference(inputs[i], layers_[i].w, g, layers_[i].dw,
                             layers_[i].db, i > 0 ? &dx : nullptr);
    if (i == 0) break;
    const Matrix& z = pre_activations[i - 1];
    for (std::size_t e = 0; e < dx.size(); ++e) {
      if (z.data()[e] <= 0.0f) dx.data()[e] = 0.0f;
    }
    g = std::move(dx);
  }
  return prediction;
}

void ReferenceTraining::adam_step(double learning_rate) {
  const Adam::Config config;
  ++t_;
  const double bc1 = 1.0 - std::pow(config.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config.beta2, static_cast<double>(t_));
  std::size_t idx = 0;
  const auto update = [&](float& param, float grad) {
    const double g = grad;
    m_[idx] = static_cast<float>(config.beta1 * m_[idx] +
                                 (1.0 - config.beta1) * g);
    v_[idx] = static_cast<float>(config.beta2 * v_[idx] +
                                 (1.0 - config.beta2) * g * g);
    const double m_hat = m_[idx] / bc1;
    const double v_hat = v_[idx] / bc2;
    param -= static_cast<float>(learning_rate * m_hat /
                                (std::sqrt(v_hat) + config.epsilon));
    ++idx;
  };
  for (Layer& layer : layers_) {
    for (std::size_t i = 0; i < layer.w.size(); ++i) {
      update(layer.w.data()[i], layer.dw.data()[i]);
    }
    for (std::size_t i = 0; i < layer.b.size(); ++i) {
      update(layer.b[i], layer.db[i]);
    }
  }
}

std::vector<float> ReferenceTraining::weights() const {
  std::vector<float> out;
  for (const Layer& layer : layers_) {
    out.insert(out.end(), layer.w.data(), layer.w.data() + layer.w.size());
    out.insert(out.end(), layer.b.begin(), layer.b.end());
  }
  return out;
}

}  // namespace topil::nn
