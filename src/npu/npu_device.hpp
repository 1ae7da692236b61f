#pragma once

#include <cstddef>
#include <map>

#include "npu/compiled_model.hpp"
#include "npu/npu_cost_model.hpp"

namespace topil::persist {
struct SnapshotAccess;
}

namespace topil::npu {

class InferenceAggregator;

/// Behavioural NPU device: accepts asynchronous batched inference jobs and
/// makes results available after the latency of the per-layer cost model
/// (npu/npu_cost_model.hpp). Results are computed on the host with the
/// fp16-quantized weights (CompiledModel::infer_batched_into); the host
/// compute never affects the modeled timing.
class NpuDevice {
 public:
  using JobId = std::size_t;

  explicit NpuDevice(NpuCostModel cost = {}) : cost_(cost) {}

  /// Submit a non-blocking inference job at time `now`.
  JobId submit(const CompiledModel& model, const nn::Matrix& input,
               double now);

  /// True once the job's completion time has passed.
  bool ready(JobId job, double now) const;
  /// Completion time of a submitted job.
  double completion_time(JobId job) const;
  /// Retrieve (and discard) the result; requires ready().
  nn::Matrix take_result(JobId job, double now);

  /// Service latency of a job of `batch_rows` rows (per-layer cost
  /// model). Jobs do not queue: each completes this long after submit.
  double latency_s(const CompiledModel& model, std::size_t batch_rows) const;

  const NpuCostModel& cost_model() const { return cost_; }

  std::size_t pending_jobs() const { return jobs_.size(); }

  /// Attach a fleet inference aggregator (nullptr detaches). With an
  /// aggregator, `submit` defers the compute: the job's completion time is
  /// modeled exactly as before, but the result is only materialized when
  /// the aggregator is flushed (once per fleet tick). `take_result` rejects
  /// jobs whose aggregated batch has not been flushed yet.
  void set_aggregator(InferenceAggregator* aggregator) {
    aggregator_ = aggregator;
  }
  InferenceAggregator* aggregator() const { return aggregator_; }

 private:
  // Results are computed eagerly at submit and stored in `jobs_`, so an
  // in-flight batch is plain data — which is what lets a checkpoint land
  // in the middle of a governor epoch (src/persist/snapshot.cpp).
  friend struct topil::persist::SnapshotAccess;

  struct Job {
    double done_at = 0.0;
    nn::Matrix result;
  };

  NpuCostModel cost_;
  JobId next_id_ = 1;
  std::map<JobId, Job> jobs_;
  nn::InferenceWorkspace ws_;  ///< reused across submitted jobs
  InferenceAggregator* aggregator_ = nullptr;
};

}  // namespace topil::npu
