#include "governors/schedutil.hpp"

#include <algorithm>

#include "persist/state_codec.hpp"

namespace topil {

SchedutilPolicy::SchedutilPolicy(Config config) : config_(config) {
  TOPIL_REQUIRE(config.period_s > 0.0, "period must be positive");
  TOPIL_REQUIRE(config.headroom >= 1.0, "headroom must be >= 1");
  TOPIL_REQUIRE(config.rate_limit_s >= 0.0, "negative rate limit");
}

void SchedutilPolicy::reset(SystemSim& sim) {
  next_run_ = sim.now();
  last_change_.assign(sim.platform().num_clusters(), -1e9);
}

template <typename Io, typename Self>
void SchedutilPolicy::fields(Io& io, Self& self) {
  io.tag("SCU ");
  io.f64(self.next_run_);
  persist::fixed_seq(io, self.last_change_, "schedutil cluster");
}

void SchedutilPolicy::save_state(persist::StateWriter& out) const {
  fields(out, *this);
}

void SchedutilPolicy::restore_state(persist::StateReader& in) {
  fields(in, *this);
}

void SchedutilPolicy::tick(SystemSim& sim) {
  if (sim.now() + 1e-9 < next_run_) return;
  next_run_ = sim.now() + config_.period_s;

  const PlatformSpec& platform = sim.platform();
  for (ClusterId x = 0; x < platform.num_clusters(); ++x) {
    if (sim.now() - last_change_[x] < config_.rate_limit_s) continue;
    double util = 0.0;
    for (CoreId core : platform.cores_of_cluster(x)) {
      util = std::max(util, sim.core_utilization(core));
    }
    const VFTable& vf = platform.cluster(x).vf;
    const double target_ghz = config_.headroom * util * vf.max_freq();
    const std::size_t level = vf.level_for_demand(target_ghz);
    if (level != sim.requested_vf_level(x)) {
      sim.request_vf_level(x, level);
      last_change_[x] = sim.now();
    }
  }
}

std::unique_ptr<Governor> make_gts_schedutil() {
  return std::make_unique<GtsGovernor>(std::make_unique<SchedutilPolicy>());
}

}  // namespace topil
