// Bitwise checks of the production inference path (nn::dense_forward_simd
// behind Mlp, CompiledModel and InferenceAggregator) against the scalar
// reference forward (nn::dense_forward_reference per layer).

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <string>

#include "../nn/reference_forward.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "npu/batch_aggregator.hpp"
#include "npu/compiled_model.hpp"

namespace topil::npu {
namespace {

using nn::expect_bits_equal;
using nn::reference_predict;

nn::Mlp make_model(const nn::Topology& topology, std::uint64_t seed) {
  nn::Mlp model(topology);
  model.init(seed);
  return model;
}

nn::Matrix random_batch(std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  nn::Matrix batch(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.data()[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
  }
  return batch;
}

nn::Topology random_topology(Rng& shapes) {
  nn::Topology topology;
  topology.inputs = static_cast<std::size_t>(shapes.uniform_int(1, 30));
  const int depth = shapes.uniform_int(1, 4);
  for (int d = 0; d < depth; ++d) {
    topology.hidden.push_back(
        static_cast<std::size_t>(shapes.uniform_int(1, 64)));
  }
  topology.outputs = static_cast<std::size_t>(shapes.uniform_int(1, 16));
  return topology;
}

TEST(InferencePath, CompiledModelBitIdenticalToReference) {
  Rng shapes(42);
  for (int trial = 0; trial < 10; ++trial) {
    const nn::Topology topology = random_topology(shapes);
    const CompiledModel compiled =
        CompiledModel::compile(make_model(topology, 100 + trial));

    // 1-row batches are the urgent-single-query case; the rest are random.
    for (const std::size_t rows :
         {std::size_t{1},
          static_cast<std::size_t>(shapes.uniform_int(2, 70))}) {
      const nn::Matrix input =
          random_batch(rows, topology.inputs, 7000 + trial);
      nn::Matrix got;
      nn::InferenceWorkspace ws;
      compiled.infer_batched_into(input, got, ws);
      expect_bits_equal(got, reference_predict(compiled.network(), input),
                        "trial " + std::to_string(trial) + " rows " +
                            std::to_string(rows));
    }
  }
}

TEST(InferencePath, AdversarialFp16InputsMatchBitwise) {
  // Signed zeros, fp16 subnormals and saturation, infinities and NaN
  // through a compiled model: the fused path runs the reference's
  // per-element operation sequence, so even non-finite outputs agree on
  // every bit.
  const nn::Topology topology{13, {32, 24}, 5};
  const CompiledModel compiled = CompiledModel::compile(make_model(topology, 3));
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f,     -0.0f,    5.96e-8f, -5.96e-8f,
                            6.1e-5f,  -6.1e-5f, 65504.0f, -65504.0f,
                            65520.0f, 1e-40f,   -1e-40f,  1.0f,
                            inf,      -inf,     nan};
  nn::Matrix input(9, topology.inputs);
  Rng rng(11);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.data()[i] = specials[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(std::size(specials)) - 1))];
  }

  nn::Matrix got;
  nn::InferenceWorkspace ws;
  compiled.infer_batched_into(input, got, ws);
  expect_bits_equal(got, reference_predict(compiled.network(), input),
                    "adversarial inputs");
}

TEST(InferencePath, RejectsEmptyBatch) {
  const CompiledModel compiled =
      CompiledModel::compile(make_model(nn::Topology{4, {8}, 2}, 1));
  nn::Matrix empty;
  nn::Matrix out;
  nn::InferenceWorkspace ws;
  EXPECT_THROW(compiled.infer_batched_into(empty, out, ws), InvalidArgument);
}

TEST(InferencePath, AggregatedFlushBitIdenticalToReference) {
  // Requests of different sizes share one concatenated kernel call; each
  // slot must still equal the reference on its own rows.
  const nn::Topology topology{11, {32, 32}, 6};
  const CompiledModel compiled =
      CompiledModel::compile(make_model(topology, 77));
  const nn::Matrix a = random_batch(5, topology.inputs, 1);
  const nn::Matrix b = random_batch(1, topology.inputs, 2);
  const nn::Matrix c = random_batch(9, topology.inputs, 3);

  InferenceAggregator aggregator;
  nn::Matrix out_a;
  nn::Matrix out_b;
  nn::Matrix out_c;
  aggregator.enqueue(compiled, a, &out_a);
  aggregator.enqueue(compiled, b, &out_b);
  aggregator.enqueue(compiled, c, &out_c);
  aggregator.flush();
  EXPECT_EQ(aggregator.device_calls(), 1u);
  expect_bits_equal(out_a, reference_predict(compiled.network(), a), "slot a");
  expect_bits_equal(out_b, reference_predict(compiled.network(), b), "slot b");
  expect_bits_equal(out_c, reference_predict(compiled.network(), c), "slot c");
}

TEST(InferencePath, TrainingForwardBitIdenticalToReference) {
  // Mlp::forward (the training pass, which keeps every layer's output for
  // backprop) runs the same fused kernel as inference.
  Rng shapes(7);
  for (int trial = 0; trial < 8; ++trial) {
    const nn::Topology topology = random_topology(shapes);
    nn::Mlp model = make_model(topology, 500 + trial);
    const std::size_t rows =
        static_cast<std::size_t>(shapes.uniform_int(1, 70));
    const nn::Matrix input = random_batch(rows, topology.inputs, 900 + trial);
    nn::TrainingWorkspace ws;
    expect_bits_equal(model.forward(input, ws), reference_predict(model, input),
                      "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace topil::npu
