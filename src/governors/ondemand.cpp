#include "governors/ondemand.hpp"

#include <algorithm>

#include "persist/state_codec.hpp"

namespace topil {

OndemandPolicy::OndemandPolicy() : OndemandPolicy(Config{}) {}

OndemandPolicy::OndemandPolicy(Config config) : config_(config) {
  TOPIL_REQUIRE(config.period_s > 0.0, "period must be positive");
  TOPIL_REQUIRE(config.down_threshold < config.up_threshold,
                "thresholds inverted");
}

void OndemandPolicy::reset(SystemSim& sim) { next_run_ = sim.now(); }

template <typename Io, typename Self>
void OndemandPolicy::fields(Io& io, Self& self) {
  io.tag("OND ");
  io.f64(self.next_run_);
}

void OndemandPolicy::save_state(persist::StateWriter& out) const {
  fields(out, *this);
}

void OndemandPolicy::restore_state(persist::StateReader& in) {
  fields(in, *this);
}

void OndemandPolicy::tick(SystemSim& sim) {
  if (sim.now() + 1e-9 < next_run_) return;
  next_run_ = sim.now() + config_.period_s;

  const PlatformSpec& platform = sim.platform();
  for (ClusterId x = 0; x < platform.num_clusters(); ++x) {
    double util = 0.0;
    for (CoreId core : platform.cores_of_cluster(x)) {
      util = std::max(util, sim.core_utilization(core));
    }
    const std::size_t top = platform.cluster(x).vf.num_levels() - 1;
    const std::size_t current = sim.requested_vf_level(x);
    if (util > config_.up_threshold) {
      sim.request_vf_level(x, top);  // ondemand jumps straight to peak
    } else if (util < config_.down_threshold && current > 0) {
      sim.request_vf_level(x, current - 1);
    }
  }
}

}  // namespace topil
