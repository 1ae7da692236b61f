#include "npu/batch_aggregator.hpp"

#include <cstring>

namespace topil::npu {

void InferenceAggregator::enqueue(const CompiledModel& model,
                                  const nn::Matrix& input, nn::Matrix* out) {
  TOPIL_REQUIRE(out != nullptr, "null result slot");
  TOPIL_REQUIRE(input.rows() > 0, "empty inference batch");
  Request req;
  req.model = &model;
  req.input = input;
  req.out = out;
  pending_.push_back(std::move(req));
  ++requests_;
}

void InferenceAggregator::flush() {
  std::vector<bool> done(pending_.size(), false);
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (done[i]) continue;

    // Group all not-yet-flushed requests sharing this model's fingerprint,
    // in submission order (first-seen order keeps flushing deterministic).
    const CompiledModel& model = *pending_[i].model;
    const std::uint64_t fp = model.fingerprint();
    const std::size_t cols = pending_[i].input.cols();
    group_.clear();
    std::size_t total_rows = 0;
    for (std::size_t j = i; j < pending_.size(); ++j) {
      if (done[j] || pending_[j].model->fingerprint() != fp) continue;
      TOPIL_REQUIRE(pending_[j].input.cols() == cols,
                    "aggregated inputs must share the feature width");
      group_.push_back(j);
      total_rows += pending_[j].input.rows();
      done[j] = true;
    }

    // Gather rows, one device call, scatter rows.
    concat_.resize(total_rows, cols);
    std::size_t row = 0;
    for (std::size_t j : group_) {
      const nn::Matrix& in = pending_[j].input;
      std::memcpy(concat_.row(row), in.data(),
                  in.rows() * cols * sizeof(float));
      row += in.rows();
    }
    model.infer_batched_into(concat_, result_, ws_);
    row = 0;
    for (std::size_t j : group_) {
      const std::size_t rows = pending_[j].input.rows();
      nn::Matrix& out = *pending_[j].out;
      out.resize(rows, result_.cols());
      std::memcpy(out.data(), result_.row(row),
                  rows * result_.cols() * sizeof(float));
      row += rows;
    }

    ++device_calls_;
    rows_inferred_ += total_rows;
  }
  pending_.clear();
}

}  // namespace topil::npu
