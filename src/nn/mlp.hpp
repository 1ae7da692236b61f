#pragma once

#include <vector>

#include "common/rng.hpp"
#include "nn/layers.hpp"

namespace topil::nn {

/// Network shape: input width, hidden widths, output width. The paper's
/// NAS selects {21, 64, 64, 64, 64, 8}.
struct Topology {
  std::size_t inputs = 0;
  std::vector<std::size_t> hidden;
  std::size_t outputs = 0;

  std::size_t num_layers() const { return hidden.size() + 1; }
};

/// Reusable buffers for the inference forward pass: two ping-pong
/// activation matrices. A caller that runs inference repeatedly (governor
/// tick, training validation) keeps one workspace alive so the whole pass
/// allocates nothing in steady state. Workspaces must not be shared between
/// threads.
struct InferenceWorkspace {
  Matrix a;
  Matrix b;
};

/// Fully-connected multi-layer perceptron: ReLU on hidden layers, linear
/// output (the paper's regression head over per-core mapping ratings).
class Mlp {
 public:
  explicit Mlp(const Topology& topology);

  /// (Re-)initialize all weights with the given seed.
  void init(std::uint64_t seed);

  /// Training forward pass over a batch (caches activations).
  Matrix forward(const Matrix& input);
  /// Inference forward pass (no caches; thread-safe on a const model).
  Matrix predict(const Matrix& input) const;
  /// Inference into a caller-owned output with reusable buffers; `out`
  /// must not alias `input`. Bit-identical to `predict`.
  void predict_into(const Matrix& input, Matrix& out,
                    InferenceWorkspace& ws) const;

  /// Backprop from dL/d(output); accumulates parameter gradients.
  void backward(const Matrix& grad_output);
  void zero_grad();

  const Topology& topology() const { return topology_; }
  std::size_t num_params() const;

  std::vector<DenseLayer>& layers() { return dense_; }
  const std::vector<DenseLayer>& layers() const { return dense_; }

  /// Deep snapshot/restore of all weights (used by early stopping).
  std::vector<float> save_weights() const;
  void load_weights(const std::vector<float>& weights);

 private:
  Topology topology_;
  std::vector<DenseLayer> dense_;
  std::vector<ReluLayer> relu_;
};

}  // namespace topil::nn
