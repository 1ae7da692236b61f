#include "governors/toprl_governor.hpp"

#include "persist/snapshot.hpp"

namespace topil {

TopRlGovernor::TopRlGovernor(const PlatformSpec& platform)
    : TopRlGovernor(platform, Config{}) {}

TopRlGovernor::TopRlGovernor(const PlatformSpec& platform, rl::QTable table)
    : TopRlGovernor(platform, std::move(table), Config{}) {}

TopRlGovernor::TopRlGovernor(const PlatformSpec& platform, Config config)
    : TopRlGovernor(
          platform,
          rl::QTable(rl::StateQuantizer(platform, config.state).num_states(),
                     platform.num_cores()),
          config) {}

TopRlGovernor::TopRlGovernor(const PlatformSpec& platform, rl::QTable table,
                             Config config)
    : config_(config),
      quantizer_(platform, config.state),
      table_(std::move(table)),
      controller_(table_, quantizer_, config.params, Rng(config.seed),
                  config.learning_enabled),
      dvfs_(config.dvfs) {
  TOPIL_REQUIRE(config.migration_period_s > 0.0,
                "migration period must be positive");
}

void TopRlGovernor::reset(SystemSim& sim) {
  dvfs_.reset(sim);
  next_migration_ = sim.now() + config_.migration_period_s;
  controller_.reset_episode();
  migrations_ = 0;
}

void TopRlGovernor::migration_epoch(SystemSim& sim) {
  const PlatformSpec& platform = sim.platform();
  const std::size_t n_cores = platform.num_cores();

  sim.charge_counter_reads("migration");
  const std::map<Pid, Process>& processes = sim.processes();
  sim.charge_overhead(
      "migration",
      config_.invocation_cost_s +
          config_.per_app_cost_s * static_cast<double>(processes.size()));

  // Reward for the action executed last epoch (Eq. 7), from observable
  // state only: the board temperature sensor and QoS-target checks.
  bool any_violation = false;
  std::vector<bool> occupied(n_cores, false);
  for (const auto& [pid, proc] : processes) {
    occupied[proc.core()] = true;
    if (proc.measured_ips() < proc.qos_target_ips()) any_violation = true;
  }
  const double reward =
      rl::compute_reward(config_.params, sim.sensor_temp_c(), any_violation);

  std::vector<rl::RlMigrationController::AppObservation> obs;
  obs.reserve(processes.size());
  std::vector<std::size_t> levels(platform.num_clusters());
  for (ClusterId x = 0; x < platform.num_clusters(); ++x) {
    levels[x] = sim.vf_level(x);
  }
  for (const auto& [pid, proc] : processes) {
    rl::StateQuantizer::Observation o;
    o.core = proc.core();
    o.qos_met = proc.measured_ips() >= proc.qos_target_ips();
    o.measured_ips = proc.measured_ips();
    o.l2d_rate = proc.measured_l2d_rate();
    o.vf_levels = levels;

    rl::RlMigrationController::AppObservation a;
    a.pid = pid;
    a.state = quantizer_.quantize(o);
    a.current_core = proc.core();
    a.allowed_actions.assign(n_cores, false);
    for (CoreId c = 0; c < n_cores; ++c) {
      a.allowed_actions[c] = !occupied[c] || c == proc.core();
    }
    obs.push_back(std::move(a));
  }

  const auto decision = controller_.epoch(obs, reward);
  if (decision && sim.is_running(decision->pid) &&
      sim.process(decision->pid).core() != decision->target_core) {
    sim.migrate(decision->pid, decision->target_core);
    ++migrations_;
    dvfs_.notify_migration();
  }
}

template <typename Io, typename Self>
void TopRlGovernor::fields(Io& io, Self& self) {
  io.tag("TRL ");
  persist::SnapshotAccess::fields(io, self.table_);
  persist::SnapshotAccess::fields(io, self.controller_);
  persist::SnapshotAccess::fields(io, self.dvfs_);
  io.f64(self.next_migration_);
  io.u64(self.migrations_);
}

void TopRlGovernor::save_state(persist::StateWriter& out) const {
  fields(out, *this);
}

void TopRlGovernor::restore_state(persist::StateReader& in) {
  fields(in, *this);
}

void TopRlGovernor::tick(SystemSim& sim) {
  dvfs_.tick(sim);
  if (sim.now() + 1e-9 >= next_migration_) {
    next_migration_ = sim.now() + config_.migration_period_s;
    migration_epoch(sim);
  }
}

}  // namespace topil
