#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "governors/governor.hpp"
#include "validate/validation.hpp"
#include "workloads/workload.hpp"

namespace topil {

/// Configuration of one evaluation run.
struct ExperimentConfig {
  CoolingConfig cooling = CoolingConfig::fan();
  SimConfig sim{};
  /// Hard wall-clock (simulated) limit; runs also end when every workload
  /// item has arrived and finished.
  double max_duration_s = 3600.0;
  /// Optional per-tick observer for time-series figures (may be empty).
  std::function<void(const SystemSim&)> observer;
  /// Tolerances for the runtime invariant checker; only consulted when
  /// `sim.validate` is set.
  validate::ValidationConfig validation{};
  /// Optional externally owned monitor (e.g. validate::DigestMonitor for
  /// cheap digest-only reruns). Attached for the duration of the run; must
  /// outlive it. Mutually exclusive with `sim.validate`, which attaches
  /// the run's own InvariantChecker (a SystemSim holds one monitor).
  SimMonitor* monitor = nullptr;
};

/// Aggregated outcome of one run — everything the paper's figures report.
struct ExperimentResult {
  std::string governor;
  double avg_temp_c = 0.0;
  double peak_temp_c = 0.0;
  std::size_t qos_violations = 0;
  std::size_t apps_completed = 0;
  std::size_t apps_total = 0;
  double duration_s = 0.0;
  double avg_utilization = 0.0;
  double peak_utilization = 0.0;
  std::size_t throttle_events = 0;
  std::map<std::string, double> overhead_s;  ///< per governor component
  /// CPU busy time per (cluster, VF level) — the frequency-usage figure.
  std::vector<std::vector<double>> cpu_time_s;
  std::vector<CompletedProcess> completed;
  /// Invariant-checker outcome incl. the run's trace digest; null unless
  /// the run had `sim.validate` set. A violation aborts the run by
  /// throwing validate::ValidationError instead.
  std::shared_ptr<const validate::ValidationReport> validation;

  double qos_violation_fraction() const;
};

/// One head of the experiment loop, run before every simulator tick: stop
/// at the duration limit, spawn every workload item whose arrival time has
/// come (placed by the governor; advances `next_arrival`), stop once every
/// item has arrived and finished, else run the governor's tick. Returns
/// false when the run is over; otherwise the caller steps the simulator
/// once. Every experiment driver — run_experiment, its checkpointed
/// variant, the fleet lanes and the server's devices — calls this, which
/// is what keeps their runs bit-identical.
bool experiment_loop_head(SystemSim& sim, Governor& governor,
                          const Workload& workload, double max_duration_s,
                          std::size_t& next_arrival);

/// Run `workload` under `governor` on a freshly constructed simulator.
ExperimentResult run_experiment(const PlatformSpec& platform,
                                Governor& governor, const Workload& workload,
                                const ExperimentConfig& config);

/// Assemble the standard result block from a finished simulation. Shared
/// by run_experiment and the fleet batch runner (fleet::run_experiments);
/// fills everything except `validation`, which the caller owns.
ExperimentResult assemble_experiment_result(const SystemSim& sim,
                                            const Governor& governor,
                                            std::size_t apps_total);

}  // namespace topil
