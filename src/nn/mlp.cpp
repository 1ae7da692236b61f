#include "nn/mlp.hpp"

namespace topil::nn {

Mlp::Mlp(const Topology& topology) : topology_(topology) {
  TOPIL_REQUIRE(topology.inputs > 0, "topology needs inputs");
  TOPIL_REQUIRE(topology.outputs > 0, "topology needs outputs");
  std::size_t prev = topology.inputs;
  for (std::size_t width : topology.hidden) {
    TOPIL_REQUIRE(width > 0, "hidden width must be positive");
    dense_.emplace_back(prev, width);
    prev = width;
  }
  dense_.emplace_back(prev, topology.outputs);
}

void Mlp::init(std::uint64_t seed) {
  Rng rng(seed);
  for (auto& layer : dense_) layer.init(rng);
}

const Matrix& Mlp::forward(const Matrix& input, TrainingWorkspace& ws) const {
  ws.outputs.resize(dense_.size());
  const Matrix* x = &input;
  for (std::size_t i = 0; i < dense_.size(); ++i) {
    dense_[i].forward_into(*x, ws.outputs[i],
                           /*relu=*/i + 1 < dense_.size());
    x = &ws.outputs[i];
  }
  return *x;
}

Matrix Mlp::predict(const Matrix& input) const {
  Matrix out;
  InferenceWorkspace ws;
  predict_into(input, out, ws);
  return out;
}

void Mlp::predict_into(const Matrix& input, Matrix& out,
                       InferenceWorkspace& ws) const {
  const Matrix* x = &input;
  for (std::size_t i = 0; i + 1 < dense_.size(); ++i) {
    Matrix& activation = (i % 2 == 0) ? ws.a : ws.b;
    dense_[i].forward_into(*x, activation, /*relu=*/true);
    x = &activation;
  }
  dense_.back().forward_into(*x, out, /*relu=*/false);
}

void Mlp::backward(const Matrix& input, const Matrix& grad_output,
                   TrainingWorkspace& ws) {
  TOPIL_REQUIRE(ws.outputs.size() == dense_.size() &&
                    ws.outputs.front().rows() == input.rows(),
                "backward without a matching forward");
  // Layer i > 0 writes the gradient at layer i-1's pre-activation (its
  // input's ReLU mask fused in); layer 0's input gradient is not needed.
  const Matrix* g = &grad_output;
  for (std::size_t i = dense_.size() - 1; i > 0; --i) {
    Matrix& grad_input = (i % 2 == 0) ? ws.grad_a : ws.grad_b;
    dense_[i].backward(ws.outputs[i - 1], *g, &grad_input, ws.transposed);
    g = &grad_input;
  }
  dense_[0].backward(input, *g, nullptr, ws.transposed);
}

void Mlp::zero_grad() {
  for (auto& layer : dense_) layer.zero_grad();
}

std::size_t Mlp::num_params() const {
  std::size_t n = 0;
  for (const auto& layer : dense_) n += layer.num_params();
  return n;
}

std::vector<float> Mlp::save_weights() const {
  std::vector<float> out;
  out.reserve(num_params());
  for (const auto& layer : dense_) {
    const Matrix& w = layer.weights();
    out.insert(out.end(), w.data(), w.data() + w.size());
    out.insert(out.end(), layer.bias().begin(), layer.bias().end());
  }
  return out;
}

void Mlp::load_weights(const std::vector<float>& weights) {
  TOPIL_REQUIRE(weights.size() == num_params(),
                "weight vector size does not match topology");
  std::size_t pos = 0;
  for (auto& layer : dense_) {
    Matrix& w = layer.weights();
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = weights[pos++];
    for (float& b : layer.bias()) b = weights[pos++];
  }
}

}  // namespace topil::nn
