#include "nn/mlp.hpp"

namespace topil::nn {

Mlp::Mlp(const Topology& topology) : topology_(topology) {
  TOPIL_REQUIRE(topology.inputs > 0, "topology needs inputs");
  TOPIL_REQUIRE(topology.outputs > 0, "topology needs outputs");
  std::size_t prev = topology.inputs;
  for (std::size_t width : topology.hidden) {
    TOPIL_REQUIRE(width > 0, "hidden width must be positive");
    dense_.emplace_back(prev, width);
    relu_.emplace_back();
    prev = width;
  }
  dense_.emplace_back(prev, topology.outputs);
}

void Mlp::init(std::uint64_t seed) {
  Rng rng(seed);
  for (auto& layer : dense_) layer.init(rng);
}

Matrix Mlp::forward(const Matrix& input) {
  Matrix x = input;
  for (std::size_t i = 0; i < relu_.size(); ++i) {
    x = relu_[i].forward(dense_[i].forward(x));
  }
  return dense_.back().forward(x);
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
  for (std::size_t i = 0; i < relu_.size(); ++i) {
    Matrix& activation = (i % 2 == 0) ? ws.a : ws.b;
    dense_[i].forward_inference_into(*x, activation, /*relu=*/true);
    x = &activation;
  }
  dense_.back().forward_inference_into(*x, out, /*relu=*/false);
}

void Mlp::backward(const Matrix& grad_output) {
  Matrix g = dense_.back().backward(grad_output);
  for (std::size_t i = relu_.size(); i-- > 0;) {
    g = dense_[i].backward(relu_[i].backward(g));
  }
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
