#include "governors/gts.hpp"

#include <algorithm>

#include "persist/snapshot.hpp"

namespace topil {

GtsScheduler::GtsScheduler() : GtsScheduler(Config{}) {}

GtsScheduler::GtsScheduler(Config config) : config_(config) {
  TOPIL_REQUIRE(config.period_s > 0.0, "scheduler period must be positive");
}

void GtsScheduler::reset(SystemSim& sim) { next_run_ = sim.now(); }

std::optional<CoreId> GtsScheduler::empty_core(const SystemSim& sim,
                                               ClusterId cluster) {
  for (CoreId core : sim.platform().cores_of_cluster(cluster)) {
    if (!sim.core_occupied(core)) return core;
  }
  return std::nullopt;
}

std::optional<CoreId> GtsScheduler::empty_core_by_perf(const SystemSim& sim) {
  // Fastest tier first: GTS steers runnable tasks to the most capable
  // cluster with room (big before LITTLE on two-tier parts).
  const auto& order = sim.platform().clusters_by_perf();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (const auto core = empty_core(sim, *it)) return core;
  }
  return std::nullopt;
}

CoreId GtsScheduler::place(SystemSim& sim) const {
  const PlatformSpec& platform = sim.platform();
  // Runnable (performance-hungry) tasks are steered to the fastest tier
  // with an empty core.
  if (const auto core = empty_core_by_perf(sim)) return *core;
  // Everything occupied: the top-tier core with the fewest tasks.
  const ClusterId top = platform.max_perf_cluster();
  CoreId best = platform.core_id(top, 0);
  std::size_t best_count = sim.pids_on_core(best).size();
  for (CoreId core : platform.cores_of_cluster(top)) {
    const std::size_t count = sim.pids_on_core(core).size();
    if (count < best_count) {
      best = core;
      best_count = count;
    }
  }
  return best;
}

void GtsScheduler::tick(SystemSim& sim) {
  if (sim.now() + 1e-9 < next_run_) return;
  next_run_ = sim.now() + config_.period_s;

  const PlatformSpec& platform = sim.platform();

  // Bounded rebalancing passes; each pass moves at most one task per
  // overloaded core, mirroring the incremental behaviour of the kernel
  // load balancer.
  for (std::size_t pass = 0; pass < platform.num_cores(); ++pass) {
    bool moved = false;

    // 1. Spread: overloaded core -> empty core (fastest tier first).
    for (CoreId core = 0; core < platform.num_cores() && !moved; ++core) {
      const std::vector<Pid> pids = sim.pids_on_core(core);
      if (pids.size() < 2) continue;
      if (const auto target = empty_core_by_perf(sim)) {
        sim.migrate(pids.back(), *target);
        moved = true;
      }
    }

    // 2. Up-migration: a lone hungry task on a slower tier moves to an
    //    empty core of a strictly faster tier, fastest first (GTS favours
    //    capable cores for runnable tasks).
    const auto& order = platform.clusters_by_perf();
    for (std::size_t rank = 0; rank + 1 < order.size() && !moved; ++rank) {
      for (CoreId core : platform.cores_of_cluster(order[rank])) {
        if (moved) break;
        const std::vector<Pid> pids = sim.pids_on_core(core);
        if (pids.size() != 1) continue;
        if (sim.core_utilization(core) < 0.5) continue;  // mostly idle: stay
        for (std::size_t up = order.size(); up-- > rank + 1;) {
          if (const auto target = empty_core(sim, order[up])) {
            sim.migrate(pids.front(), *target);
            moved = true;
            break;
          }
        }
      }
    }

    if (!moved) break;
  }
}

GtsGovernor::GtsGovernor(std::unique_ptr<FreqPolicy> freq_policy,
                         GtsScheduler::Config scheduler_config)
    : scheduler_(scheduler_config), freq_policy_(std::move(freq_policy)) {
  TOPIL_REQUIRE(freq_policy_ != nullptr, "null frequency policy");
}

std::string GtsGovernor::name() const {
  return "GTS/" + freq_policy_->name();
}

void GtsGovernor::reset(SystemSim& sim) {
  scheduler_.reset(sim);
  freq_policy_->reset(sim);
}

CoreId GtsGovernor::place(SystemSim& sim, const AppSpec& app,
                          double qos_target_ips) {
  (void)app;
  (void)qos_target_ips;
  return scheduler_.place(sim);
}

void GtsGovernor::tick(SystemSim& sim) {
  scheduler_.tick(sim);
  freq_policy_->tick(sim);
}

template <typename Io, typename Self>
void GtsGovernor::fields(Io& io, Self& self) {
  persist::SnapshotAccess::fields(io, self.scheduler_);
  persist::hook_fields(io, *self.freq_policy_);
}

void GtsGovernor::save_state(persist::StateWriter& out) const {
  fields(out, *this);
}

void GtsGovernor::restore_state(persist::StateReader& in) {
  fields(in, *this);
}

}  // namespace topil
