#include "npu/npu_device.hpp"

#include "npu/batch_aggregator.hpp"

namespace topil::npu {

double NpuDevice::latency_s(const CompiledModel& model,
                            std::size_t batch_rows) const {
  return cost_.latency_s(model.topology(), batch_rows);
}

NpuDevice::JobId NpuDevice::submit(const CompiledModel& model,
                                   const nn::Matrix& input, double now) {
  TOPIL_REQUIRE(input.rows() > 0, "empty inference batch");
  Job job;
  job.done_at = now + cost_.latency_s(model.topology(), input.rows());
  if (aggregator_ == nullptr) {
    model.infer_batched_into(input, job.result, ws_);
  }
  const JobId id = next_id_++;
  auto [it, inserted] = jobs_.emplace(id, std::move(job));
  TOPIL_REQUIRE(inserted, "duplicate NPU job id");
  if (aggregator_ != nullptr) {
    // Map nodes are stable: the aggregator scatters into the job in place
    // at flush, even if other jobs are submitted in between.
    aggregator_->enqueue(model, input, &it->second.result);
  }
  return it->first;
}

bool NpuDevice::ready(JobId job, double now) const {
  const auto it = jobs_.find(job);
  TOPIL_REQUIRE(it != jobs_.end(), "unknown NPU job");
  return now + 1e-12 >= it->second.done_at;
}

double NpuDevice::completion_time(JobId job) const {
  const auto it = jobs_.find(job);
  TOPIL_REQUIRE(it != jobs_.end(), "unknown NPU job");
  return it->second.done_at;
}

nn::Matrix NpuDevice::take_result(JobId job, double now) {
  auto it = jobs_.find(job);
  TOPIL_REQUIRE(it != jobs_.end(), "unknown NPU job");
  TOPIL_REQUIRE(now + 1e-12 >= it->second.done_at,
                "NPU job result not ready yet");
  TOPIL_REQUIRE(it->second.result.rows() > 0,
                "NPU job result not materialized (aggregator not flushed)");
  nn::Matrix result = std::move(it->second.result);
  jobs_.erase(it);
  return result;
}

}  // namespace topil::npu
