#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "npu/batch_aggregator.hpp"

namespace topil::fleet {

/// One simulation of a fleet run: the scalar `run_experiment` inputs, with
/// the governor supplied as a factory so every lane gets its own instance
/// and can attach to the batch's shared inference aggregator.
struct FleetJob {
  const PlatformSpec* platform = nullptr;
  const Workload* workload = nullptr;
  /// Construct the lane's governor. `aggregator` is the batch's shared
  /// NPU inference aggregator (never null while the fleet runs the job);
  /// NPU-backed governors pass it through their config (e.g.
  /// TopIlGovernor::Config::aggregator) so their device calls batch
  /// across lanes. Governors without NPU use may ignore it.
  std::function<std::unique_ptr<Governor>(npu::InferenceAggregator*)>
      make_governor;
  ExperimentConfig config;
};

struct FleetOptions {
  /// Most lanes one engine steps in SoA lockstep (at least 1; 1 degenerates
  /// to scalar-order stepping through the same engine).
  std::size_t batch = 1;
  /// Worker threads across engines (0 = hardware concurrency). Each engine
  /// is stepped by exactly one worker, so per-engine state (the inference
  /// aggregator, the SoA slabs) needs no locking.
  std::size_t jobs = 1;
};

/// The consecutive job ranges [begin, end) that `run_experiments` gives
/// its engines: `max(ceil(n / batch), min(n, workers))` chunks covering
/// [0, n) whose sizes differ by at most one. Every worker gets an engine
/// when there are jobs enough, and no engine is wider than `batch`.
std::vector<std::pair<std::size_t, std::size_t>> partition_jobs(
    std::size_t n, std::size_t batch, std::size_t workers);

/// Run every job and return results in input order — each element equal in
/// every field to what `run_experiment` returns for the same job (fleet
/// lanes are bit-identical to scalar runs; DESIGN.md §10). Jobs are cut by
/// `partition_jobs` over `resolve_jobs(options.jobs)` workers;
/// each chunk is driven through one FleetEngine with a shared inference
/// aggregator flushed once per lockstep tick. Only the chunk layout
/// depends on the worker count, never a lane's result.
std::vector<ExperimentResult> run_experiments(
    const std::vector<FleetJob>& jobs, const FleetOptions& options = {});

}  // namespace topil::fleet
