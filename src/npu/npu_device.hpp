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

  /// Legacy-calibrated construction: derives the per-layer cost model via
  /// NpuCostModel::from_legacy.
  explicit NpuDevice(NpuLatencyModel latency = {});
  /// Direct cost-model construction (e.g. with queueing enabled).
  explicit NpuDevice(NpuCostModel cost);

  /// Submit a non-blocking inference job at time `now`.
  JobId submit(const CompiledModel& model, const nn::Matrix& input,
               double now);

  /// True once the job's completion time has passed.
  bool ready(JobId job, double now) const;
  /// Completion time of a submitted job.
  double completion_time(JobId job) const;
  /// Retrieve (and discard) the result; requires ready().
  nn::Matrix take_result(JobId job, double now);

  /// Service latency the device would need for the given job (per-layer
  /// cost model; excludes any queueing delay behind in-flight jobs).
  double latency_s(const CompiledModel& model, std::size_t batch_rows) const;
  /// Shape-free legacy estimate from total MACs per row (fig11 contrast
  /// plots); kept calibrated against the legacy constant-latency model.
  double latency_s(std::size_t batch_rows, double macs_per_row) const;

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

  NpuLatencyModel legacy_;
  NpuCostModel cost_;
  double busy_until_ = 0.0;  ///< queueing horizon (cost_.queueing only)
  JobId next_id_ = 1;
  std::map<JobId, Job> jobs_;
  nn::InferenceWorkspace ws_;  ///< reused across submitted jobs
  InferenceAggregator* aggregator_ = nullptr;
};

}  // namespace topil::npu
