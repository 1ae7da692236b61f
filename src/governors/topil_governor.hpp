#pragma once

#include <optional>
#include <vector>

#include "governors/dvfs_control.hpp"
#include "governors/governor.hpp"
#include "il/il_model.hpp"
#include "npu/compiled_model.hpp"
#include "npu/npu_cost_model.hpp"

namespace topil::npu {
class InferenceAggregator;
}

namespace topil {

/// TOP-IL: the paper's contribution. Every 500 ms the governor performs
/// parallel NN inference — every running application once as the AoI, in a
/// single NPU batch — and executes the single migration with the largest
/// predicted rating improvement (Eq. 5). Per-cluster VF levels come from
/// the shared DVFS control loop. The NPU call is non-blocking: the batch
/// is submitted in one epoch and its ratings are applied at the first tick
/// at or after the modeled completion (microseconds to low milliseconds
/// later). At most one batch is in flight.
class TopIlGovernor : public Governor {
 public:
  struct Config {
    double migration_period_s = 0.5;
    /// Minimum predicted rating improvement to act (hysteresis against
    /// migration thrash on near-equal mappings).
    double min_improvement = 0.02;
    /// CPU cost charged per migration-policy invocation: feature
    /// collection, NPU submission, applying the decision.
    double invocation_cost_s = 4.0e-3;
    double per_app_cost_s = 2.0e-5;
    DvfsControlLoop::Config dvfs{};
    npu::NpuCostModel npu{};
    npu::CpuInferenceModel cpu_inference{};
    /// Fleet-engine hook: when set, this governor defers its NPU batches
    /// to the shared aggregator, which the fleet engine flushes once per
    /// lockstep tick (one device call covers every lane's epoch). Must
    /// outlive the governor. nullptr = infer at submit.
    npu::InferenceAggregator* aggregator = nullptr;
  };

  explicit TopIlGovernor(il::IlPolicyModel model);
  TopIlGovernor(il::IlPolicyModel model, Config config);

  std::string name() const override { return "TOP-IL"; }
  void reset(SystemSim& sim) override;
  void tick(SystemSim& sim) override;

  /// Checkpoints capture mid-epoch state: the DVFS loop and the batch in
  /// flight (its completion time, ratings and pids; the ratings exist from
  /// submit, or from the aggregator's flush, so the batch is plain data).
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
  DvfsControlLoop dvfs_;

  double next_migration_ = 0.0;
  bool epoch_deferred_ = false;
  std::size_t migrations_ = 0;
  std::size_t epochs_started_ = 0;
  std::size_t epochs_deferred_ = 0;
  /// The epoch's ratings: the in-flight NPU batch's result, or the CPU
  /// fallback's. Reused per epoch, as is the inference scratch.
  nn::Matrix ratings_;
  nn::InferenceWorkspace ws_;

  /// The NPU batch in flight: `ratings_` rows belong to `pids`.
  struct PendingJob {
    double done_at = 0.0;
    std::vector<Pid> pids;
  };
  std::optional<PendingJob> pending_;

  void start_migration_epoch(SystemSim& sim);
  void finish_migration_epoch(SystemSim& sim, const nn::Matrix& ratings,
                              const std::vector<Pid>& pids);
  /// The checkpointed state: saved from a const governor, restored into a
  /// mutable one.
  template <typename Io, typename Self>
  static void fields(Io& io, Self& self);
};

}  // namespace topil
