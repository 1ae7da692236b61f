#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "governors/governor.hpp"
#include "validate/validation.hpp"
#include "workloads/workload.hpp"

namespace topil {

namespace validate {
class InvariantChecker;
}

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
  /// cheap digest-only reruns). Attached for the duration of the run, after
  /// the run's own InvariantChecker when `sim.validate` is set; must
  /// outlive the run.
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

/// One evaluation run in progress: the simulator, the governor driving it,
/// the workload's arrival cursor and the run's monitors. Every experiment
/// driver steps one — run_experiment, its checkpointed variant, the fleet
/// lanes and the server's devices — which is what keeps their runs
/// bit-identical. `platform`, `governor`, `workload` and `config.monitor`
/// must outlive the run.
class ExperimentRun {
 public:
  /// Build the simulator, attach an InvariantChecker when
  /// `config.sim.validate` is set and then `config.monitor`, and reset the
  /// governor on the fresh simulator.
  ExperimentRun(const PlatformSpec& platform, Governor& governor,
                const Workload& workload, const ExperimentConfig& config);
  ~ExperimentRun();

  ExperimentRun(const ExperimentRun&) = delete;
  ExperimentRun& operator=(const ExperimentRun&) = delete;

  /// Head of one loop iteration, run before every simulator tick: stop at
  /// the duration limit, spawn every workload item whose arrival time has
  /// come (placed by the governor), stop once every item has arrived and
  /// finished, else run the governor's tick. Returns false when the run is
  /// over; otherwise the caller steps the simulator once.
  bool pre_tick();
  /// `pre_tick()`, then one simulator step and the observer. Returns false
  /// (without stepping) when the run is over.
  bool step();
  /// The result block of the run so far, with the checker's report when
  /// the run validates.
  ExperimentResult result() const;

  SystemSim& sim() { return sim_; }
  const SystemSim& sim() const { return sim_; }
  /// The run's invariant checker; null unless `config.sim.validate`.
  validate::InvariantChecker* checker() { return checker_.get(); }

  /// Index of the next workload item to arrive (checkpoint state).
  std::size_t next_arrival() const { return next_arrival_; }
  void set_next_arrival(std::size_t next_arrival);

 private:
  Governor& governor_;
  const Workload& workload_;
  double max_duration_s_;
  std::function<void(const SystemSim&)> observer_;
  SystemSim sim_;
  std::unique_ptr<validate::InvariantChecker> checker_;
  std::size_t next_arrival_ = 0;
};

/// Run `workload` under `governor` on a freshly constructed simulator.
ExperimentResult run_experiment(const PlatformSpec& platform,
                                Governor& governor, const Workload& workload,
                                const ExperimentConfig& config);

}  // namespace topil
