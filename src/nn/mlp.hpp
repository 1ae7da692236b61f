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

/// Reusable buffers of one training step (forward + backward); the trainer
/// keeps one alive so steady-state steps allocate nothing. The model itself
/// holds no training state, so copying or sharing an Mlp never copies or
/// shares these. Must not be shared between threads.
struct TrainingWorkspace {
  /// Output of every layer; a hidden layer's is post-ReLU, so it is also
  /// the next layer's input and that layer's backward ReLU mask.
  std::vector<Matrix> outputs;
  /// Ping-pong gradients at the hidden pre-activations.
  Matrix grad_a;
  Matrix grad_b;
  /// W^T of the layer being back-propagated.
  std::vector<float> transposed;
};

/// Fully-connected multi-layer perceptron: ReLU on hidden layers, linear
/// output (the paper's regression head over per-core mapping ratings).
class Mlp {
 public:
  explicit Mlp(const Topology& topology);

  /// (Re-)initialize all weights with the given seed.
  void init(std::uint64_t seed);

  /// Training forward pass over a batch: keeps every layer's output in
  /// `ws` for backward and returns the network output (held by `ws`).
  /// Bit-identical to `predict`.
  const Matrix& forward(const Matrix& input, TrainingWorkspace& ws) const;
  /// Inference forward pass (no caches; thread-safe on a const model).
  Matrix predict(const Matrix& input) const;
  /// Inference into a caller-owned output with reusable buffers; `out`
  /// must not alias `input`. Bit-identical to `predict`.
  void predict_into(const Matrix& input, Matrix& out,
                    InferenceWorkspace& ws) const;

  /// Backprop from dL/d(output) for the batch `input` that the last
  /// forward(input, ws) ran; accumulates parameter gradients.
  void backward(const Matrix& input, const Matrix& grad_output,
                TrainingWorkspace& ws);
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
};

}  // namespace topil::nn
