#include "core/experiment.hpp"

#include "validate/invariant_checker.hpp"

namespace topil {

double ExperimentResult::qos_violation_fraction() const {
  if (apps_completed == 0) return 0.0;
  return static_cast<double>(qos_violations) /
         static_cast<double>(apps_completed);
}

bool experiment_loop_head(SystemSim& sim, Governor& governor,
                          const Workload& workload, double max_duration_s,
                          std::size_t& next_arrival) {
  if (!(sim.now() < max_duration_s)) return false;
  // Spawn every application whose arrival time has come.
  const auto& items = workload.items();
  while (next_arrival < items.size() &&
         items[next_arrival].arrival_time <= sim.now() + 1e-9) {
    const WorkloadItem& item = items[next_arrival];
    const AppSpec& app = Workload::app_of(item);
    const CoreId core = governor.place(sim, app, item.qos_target_ips);
    sim.spawn(app, item.qos_target_ips, core);
    ++next_arrival;
  }
  if (next_arrival == items.size() && sim.num_running() == 0) return false;
  governor.tick(sim);
  return true;
}

ExperimentResult run_experiment(const PlatformSpec& platform,
                                Governor& governor, const Workload& workload,
                                const ExperimentConfig& config) {
  TOPIL_REQUIRE(!workload.empty(), "empty workload");
  SystemSim sim(platform, config.cooling, config.sim);

  TOPIL_REQUIRE(!(config.sim.validate && config.monitor != nullptr),
                "sim.validate and a custom monitor are mutually exclusive");
  std::unique_ptr<validate::InvariantChecker> checker;
  if (config.sim.validate) {
    checker = std::make_unique<validate::InvariantChecker>(config.validation);
    sim.attach_monitor(checker.get());
  } else if (config.monitor != nullptr) {
    sim.attach_monitor(config.monitor);
  }

  governor.reset(sim);

  std::size_t next_arrival = 0;
  while (experiment_loop_head(sim, governor, workload,
                              config.max_duration_s, next_arrival)) {
    sim.step();
    if (config.observer) config.observer(sim);
  }

  ExperimentResult result =
      assemble_experiment_result(sim, governor, workload.size());
  if (checker != nullptr) {
    result.validation =
        std::make_shared<validate::ValidationReport>(checker->report());
    sim.attach_monitor(nullptr);
  }
  return result;
}

ExperimentResult assemble_experiment_result(const SystemSim& sim,
                                            const Governor& governor,
                                            std::size_t apps_total) {
  const Metrics& metrics = sim.metrics();
  const PlatformSpec& platform = sim.platform();
  ExperimentResult result;
  result.governor = governor.name();
  result.avg_temp_c = metrics.average_temp_c();
  result.peak_temp_c = metrics.peak_temp_c();
  result.qos_violations = metrics.qos_violations();
  result.apps_completed = metrics.completed().size();
  result.apps_total = apps_total;
  result.duration_s = sim.now();
  result.avg_utilization = metrics.average_utilization();
  result.peak_utilization = metrics.peak_utilization();
  result.throttle_events = metrics.throttle_events();
  result.overhead_s = metrics.overhead_breakdown();
  result.completed = metrics.completed();

  result.cpu_time_s.resize(platform.num_clusters());
  for (ClusterId c = 0; c < platform.num_clusters(); ++c) {
    const std::size_t n_levels = platform.cluster(c).vf.num_levels();
    result.cpu_time_s[c].resize(n_levels);
    for (std::size_t level = 0; level < n_levels; ++level) {
      result.cpu_time_s[c][level] = metrics.cpu_time_s(c, level);
    }
  }
  return result;
}

}  // namespace topil
