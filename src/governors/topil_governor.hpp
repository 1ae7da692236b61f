#pragma once

#include <optional>
#include <vector>

#include "governors/dvfs_control.hpp"
#include "governors/governor.hpp"
#include "il/il_model.hpp"
#include "npu/npu_device.hpp"

namespace topil {

/// TOP-IL: the paper's contribution. Every 500 ms the governor performs
/// parallel NN inference — every running application once as the AoI, in a
/// single NPU batch — and executes the single migration with the largest
/// predicted rating improvement (Eq. 5). Per-cluster VF levels come from
/// the shared DVFS control loop. The NPU call is non-blocking: the batch
/// is submitted in one epoch and the result is applied when the device
/// reports completion (microseconds to low milliseconds later).
class TopIlGovernor : public Governor {
 public:
  struct Config {
    double migration_period_s = 0.5;
    /// Minimum predicted rating improvement to act (hysteresis against
    /// migration thrash on near-equal mappings).
    double min_improvement = 0.02;
    /// Offload batched inference to the NPU. Ignored (CPU fallback) when
    /// the platform has no NPU.
    bool use_npu = true;
    /// CPU cost charged per migration-policy invocation: feature
    /// collection, DDK submission, applying the decision.
    double invocation_cost_s = 4.0e-3;
    double per_app_cost_s = 2.0e-5;
    DvfsControlLoop::Config dvfs{};
    npu::NpuLatencyModel npu_latency{};
    npu::CpuInferenceModel cpu_inference{};
    /// Serialize this governor's NPU jobs behind a busy-until horizon
    /// (multi-tenant contention modeling, see NpuCostModel::queueing).
    /// Opt-in: default off preserves the uncontended-device digests.
    bool npu_queueing = false;
    /// Fleet-engine hook: when set, this governor's NpuDevice defers its
    /// inference batches to the shared aggregator, which the fleet engine
    /// flushes once per lockstep tick (one device call covers every lane's
    /// epoch). Must outlive the governor. nullptr = self-contained device.
    npu::InferenceAggregator* aggregator = nullptr;
  };

  explicit TopIlGovernor(il::IlPolicyModel model);
  TopIlGovernor(il::IlPolicyModel model, Config config);

  std::string name() const override { return "TOP-IL"; }
  void reset(SystemSim& sim) override;
  void tick(SystemSim& sim) override;

  /// Checkpoints capture mid-epoch state: the DVFS loop, the NPU device's
  /// in-flight batch (results are computed eagerly at submit, so the batch
  /// is plain data), and the pending-job bookkeeping.
  void save_state(persist::StateWriter& out) const override;
  void restore_state(persist::StateReader& in) override;

  const il::IlPolicyModel& model() const { return model_; }
  /// Number of migrations executed since reset (stability metric).
  std::size_t migrations_executed() const { return migrations_; }
  /// Migration epochs actually started (inference batches submitted).
  std::size_t epochs_started() const { return epochs_started_; }
  /// Epochs that hit their deadline while an NPU batch was still in
  /// flight and were run immediately after it completed.
  std::size_t epochs_deferred() const { return epochs_deferred_; }

 private:
  il::IlPolicyModel model_;
  Config config_;
  npu::CompiledModel compiled_;
  npu::NpuDevice npu_;
  DvfsControlLoop dvfs_;

  double next_migration_ = 0.0;
  bool epoch_deferred_ = false;
  std::size_t migrations_ = 0;
  std::size_t epochs_started_ = 0;
  std::size_t epochs_deferred_ = 0;
  nn::Matrix cpu_ratings_;          ///< CPU-fallback output, reused per epoch
  nn::InferenceWorkspace cpu_ws_;   ///< CPU-fallback inference scratch

  struct PendingJob {
    npu::NpuDevice::JobId job = 0;
    std::vector<Pid> pids;
  };
  std::optional<PendingJob> pending_;

  void start_migration_epoch(SystemSim& sim);
  void finish_migration_epoch(SystemSim& sim, const nn::Matrix& ratings,
                              const std::vector<Pid>& pids);
};

}  // namespace topil
