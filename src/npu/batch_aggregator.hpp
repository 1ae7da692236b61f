#pragma once

#include <cstdint>
#include <vector>

#include "npu/compiled_model.hpp"

namespace topil::npu {

/// Cross-simulation inference batcher for the fleet engine.
///
/// When many lockstep simulations tick their TOP-IL governors in the same
/// fleet tick, each governor submits a small per-app inference batch. With
/// an aggregator attached, the governors defer the compute: they queue
/// (model, input, result slot) here and the fleet engine calls `flush()`
/// once per tick, after every lane's governor has run. Requests are grouped
/// by CompiledModel::fingerprint() and each group runs as a single
/// `infer_batched_into` over the row-concatenated inputs.
///
/// Determinism contract: inference is row-independent (each output row is a
/// function of its input row only; see nn::Mlp::predict_into), so scattering
/// group results back row-for-row is bit-identical to running each request
/// alone. NPU timing (`done_at`) is computed per request from its own row
/// count exactly as in the un-aggregated path, so governor behaviour does
/// not change either — only where the multiply-accumulates happen.
///
/// Not thread-safe: one aggregator serves the lanes of one fleet batch,
/// which a single worker steps.
class InferenceAggregator {
 public:
  /// Queue a deferred request. `out` receives the result at flush() and
  /// must stay valid until then; `input` is copied.
  void enqueue(const CompiledModel& model, const nn::Matrix& input,
               nn::Matrix* out);

  /// Run all queued requests, grouped by model fingerprint (one device
  /// call per distinct compiled model), and scatter results back.
  void flush();

  std::size_t pending() const { return pending_.size(); }

  // --- lifetime statistics (bench / test introspection) ---

  /// Total rows inferred through the aggregator.
  std::uint64_t rows_inferred() const { return rows_inferred_; }
  /// Total device calls issued (batches after grouping).
  std::uint64_t device_calls() const { return device_calls_; }
  /// Total requests enqueued.
  std::uint64_t requests() const { return requests_; }

 private:
  struct Request {
    const CompiledModel* model = nullptr;
    nn::Matrix input;
    nn::Matrix* out = nullptr;
  };

  std::vector<Request> pending_;
  // Scratch reused across flushes.
  nn::Matrix concat_;
  nn::Matrix result_;
  nn::InferenceWorkspace ws_;
  std::vector<std::size_t> group_;  ///< request indices of current group

  std::uint64_t rows_inferred_ = 0;
  std::uint64_t device_calls_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace topil::npu
