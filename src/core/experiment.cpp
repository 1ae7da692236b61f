#include "core/experiment.hpp"

#include "validate/invariant_checker.hpp"

namespace topil {

double ExperimentResult::qos_violation_fraction() const {
  if (apps_completed == 0) return 0.0;
  return static_cast<double>(qos_violations) /
         static_cast<double>(apps_completed);
}

ExperimentRun::ExperimentRun(const PlatformSpec& platform, Governor& governor,
                             const Workload& workload,
                             const ExperimentConfig& config)
    : governor_(governor),
      workload_(workload),
      max_duration_s_(config.max_duration_s),
      observer_(config.observer),
      sim_(platform, config.cooling, config.sim) {
  TOPIL_REQUIRE(!workload.empty(), "empty workload");
  if (config.sim.validate) {
    checker_ = std::make_unique<validate::InvariantChecker>(config.validation);
    sim_.attach_monitor(checker_.get());
  }
  if (config.monitor != nullptr) sim_.attach_monitor(config.monitor);
  governor_.reset(sim_);
}

ExperimentRun::~ExperimentRun() = default;

bool ExperimentRun::pre_tick() {
  if (!(sim_.now() < max_duration_s_)) return false;
  // Spawn every application whose arrival time has come.
  const auto& items = workload_.items();
  while (next_arrival_ < items.size() &&
         items[next_arrival_].arrival_time <= sim_.now() + 1e-9) {
    const WorkloadItem& item = items[next_arrival_];
    const AppSpec& app = Workload::app_of(item);
    const CoreId core = governor_.place(sim_, app, item.qos_target_ips);
    sim_.spawn(app, item.qos_target_ips, core);
    ++next_arrival_;
  }
  if (next_arrival_ == items.size() && sim_.num_running() == 0) return false;
  governor_.tick(sim_);
  return true;
}

bool ExperimentRun::step() {
  if (!pre_tick()) return false;
  sim_.step();
  if (observer_) observer_(sim_);
  return true;
}

void ExperimentRun::set_next_arrival(std::size_t next_arrival) {
  TOPIL_REQUIRE(next_arrival <= workload_.size(),
                "arrival cursor past the end of the workload");
  next_arrival_ = next_arrival;
}

ExperimentResult ExperimentRun::result() const {
  const Metrics& metrics = sim_.metrics();
  const PlatformSpec& platform = sim_.platform();
  ExperimentResult result;
  result.governor = governor_.name();
  result.avg_temp_c = metrics.average_temp_c();
  result.peak_temp_c = metrics.peak_temp_c();
  result.qos_violations = metrics.qos_violations();
  result.apps_completed = metrics.completed().size();
  result.apps_total = workload_.size();
  result.duration_s = sim_.now();
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
  if (checker_ != nullptr) {
    result.validation =
        std::make_shared<validate::ValidationReport>(checker_->report());
  }
  return result;
}

ExperimentResult run_experiment(const PlatformSpec& platform,
                                Governor& governor, const Workload& workload,
                                const ExperimentConfig& config) {
  ExperimentRun run(platform, governor, workload, config);
  while (run.step()) {
  }
  return run.result();
}

}  // namespace topil
