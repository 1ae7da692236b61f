#include "governors/dvfs_control.hpp"

#include <algorithm>

#include "il/features.hpp"

namespace topil {

DvfsControlLoop::DvfsControlLoop() : DvfsControlLoop(Config{}) {}

DvfsControlLoop::DvfsControlLoop(Config config) : config_(config) {
  TOPIL_REQUIRE(config.period_s > 0.0, "control period must be positive");
}

void DvfsControlLoop::reset(SystemSim& sim) {
  next_run_ = sim.now();
  skip_ = 0;
}

void DvfsControlLoop::tick(SystemSim& sim) {
  if (sim.now() + 1e-9 < next_run_) return;
  next_run_ = sim.now() + config_.period_s;

  if (skip_ > 0) {
    --skip_;
    return;
  }

  const PlatformSpec& platform = sim.platform();
  sim.charge_counter_reads("dvfs");

  // Required level per cluster: the maximum f~_{k,min} over its apps.
  std::vector<std::size_t> target(platform.num_clusters(), 0);
  std::vector<bool> has_app(platform.num_clusters(), false);
  for (const auto& [pid, proc] : sim.processes()) {
    const ClusterId x = platform.cluster_of_core(proc.core());
    const VFTable& vf = platform.cluster(x).vf;
    std::size_t level = il::estimate_min_level(
        vf, proc.measured_ips(), sim.freq_ghz(x), proc.qos_target_ips());
    if (level >= vf.num_levels()) level = vf.num_levels() - 1;  // peak
    target[x] = std::max(target[x], level);
    has_app[x] = true;
  }

  // Move one step toward the target; idle clusters to the lowest level.
  for (ClusterId x = 0; x < platform.num_clusters(); ++x) {
    const std::size_t current = sim.requested_vf_level(x);
    std::size_t next = current;
    if (!has_app[x]) {
      next = 0;  // idle clusters run at the lowest VF level
    } else if (config_.step_policy == StepPolicy::kJumpToTarget) {
      next = target[x];
    } else if (target[x] > current) {
      next = current + 1;
    } else if (target[x] < current) {
      next = current - 1;
    }
    if (next != current) sim.request_vf_level(x, next);
  }
}

}  // namespace topil
