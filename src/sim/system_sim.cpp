#include "sim/system_sim.hpp"

#include <algorithm>
#include <cmath>

namespace topil {

SystemSim::SystemSim(const PlatformSpec& platform,
                     const CoolingConfig& cooling, const SimConfig& config)
    : platform_(&platform),
      config_(config),
      floorplan_(Floorplan::for_platform(platform, config.floorplan)),
      power_model_(platform),
      thermal_(platform, floorplan_, cooling, config.integrator),
      sensor_(config.sensor, Rng(config.seed ^ 0x5ea5e11ull)),
      dtm_(platform, config.dtm),
      metrics_(platform),
      rng_(config.seed) {
  TOPIL_REQUIRE(config.tick_s > 0.0, "tick must be positive");
  util_alpha_ = 1.0 - std::exp(-config.tick_s / config.utilization_tau_s);
  requested_levels_.assign(platform.num_clusters(), 0);
  core_util_.assign(platform.num_cores(), 0.0);
  pending_overhead_.assign(platform.num_cores(), 0.0);
  sensor_reading_ = cooling.ambient_c;
  run_queues_.resize(platform.num_cores());
  core_activity_.resize(platform.num_cores());
  core_temps_.resize(platform.num_cores());
  levels_.resize(platform.num_clusters());
  busy_per_cluster_.resize(platform.num_clusters());
}

void SystemSim::require_runnable(const AppSpec& app) const {
  for (const PhaseSpec& phase : app.phases) {
    TOPIL_REQUIRE(phase.perf.size() >= platform_->num_clusters(),
                  "app '" + app.name + "' phase '" + phase.name +
                      "' has no perf data for every cluster");
  }
}

Pid SystemSim::spawn(const AppSpec& app, double qos_target_ips, CoreId core) {
  TOPIL_REQUIRE(core < platform_->num_cores(), "core id out of range");
  require_runnable(app);
  const Pid pid = next_pid_++;
  processes_.emplace(pid, Process(pid, app, qos_target_ips, core, now_));
  return pid;
}

Process& SystemSim::mutable_process(Pid pid) {
  auto it = processes_.find(pid);
  TOPIL_REQUIRE(it != processes_.end(), "no such process");
  return it->second;
}

const Process& SystemSim::process(Pid pid) const {
  auto it = processes_.find(pid);
  TOPIL_REQUIRE(it != processes_.end(), "no such process");
  return it->second;
}

bool SystemSim::is_running(Pid pid) const {
  return processes_.count(pid) != 0;
}

std::vector<Pid> SystemSim::running_pids() const {
  std::vector<Pid> out;
  out.reserve(processes_.size());
  for (const auto& [pid, proc] : processes_) out.push_back(pid);
  return out;
}

std::size_t SystemSim::num_running() const { return processes_.size(); }

std::vector<Pid> SystemSim::pids_on_core(CoreId core) const {
  TOPIL_REQUIRE(core < platform_->num_cores(), "core id out of range");
  std::vector<Pid> out;
  for (const auto& [pid, proc] : processes_) {
    if (proc.core() == core) out.push_back(pid);
  }
  return out;
}

void SystemSim::migrate(Pid pid, CoreId core) {
  TOPIL_REQUIRE(core < platform_->num_cores(), "core id out of range");
  Process& proc = mutable_process(pid);
  if (proc.core() == core) return;
  const bool same_cluster = platform_->cluster_of_core(proc.core()) ==
                            platform_->cluster_of_core(core);
  const double penalty = migration_penalty(
      config_.migration, proc.current_phase().l2d_per_inst, same_cluster);
  proc.set_core(core);
  proc.apply_migration_penalty(now_ + config_.migration.penalty_duration_s,
                               penalty);
}

void SystemSim::request_vf_level(ClusterId cluster, std::size_t level) {
  TOPIL_REQUIRE(cluster < platform_->num_clusters(), "cluster out of range");
  TOPIL_REQUIRE(level < platform_->cluster(cluster).vf.num_levels(),
                "VF level out of range");
  requested_levels_[cluster] = level;
}

std::size_t SystemSim::requested_vf_level(ClusterId cluster) const {
  TOPIL_REQUIRE(cluster < platform_->num_clusters(), "cluster out of range");
  return requested_levels_[cluster];
}

std::size_t SystemSim::vf_level(ClusterId cluster) const {
  TOPIL_REQUIRE(cluster < platform_->num_clusters(), "cluster out of range");
  if (!config_.dtm_enabled) return requested_levels_[cluster];
  return dtm_.clamp(cluster, requested_levels_[cluster]);
}

double SystemSim::freq_ghz(ClusterId cluster) const {
  return platform_->cluster(cluster).vf.at(vf_level(cluster)).freq_ghz;
}

double SystemSim::core_utilization(CoreId core) const {
  TOPIL_REQUIRE(core < platform_->num_cores(), "core id out of range");
  return core_util_[core];
}

bool SystemSim::core_occupied(CoreId core) const {
  TOPIL_REQUIRE(core < platform_->num_cores(), "core id out of range");
  for (const auto& [pid, proc] : processes_) {
    if (proc.core() == core) return true;
  }
  return false;
}

void SystemSim::charge_overhead(const std::string& component, double cpu_s,
                                CoreId core) {
  TOPIL_REQUIRE(cpu_s >= 0.0, "overhead must be non-negative");
  TOPIL_REQUIRE(core < platform_->num_cores(), "core id out of range");
  pending_overhead_[core] += cpu_s;
  metrics_.add_overhead(component, cpu_s);
}

void SystemSim::charge_counter_reads(const std::string& component) {
  charge_overhead(component,
                  kCounterReadFixedS + kCounterReadPerProcessS *
                                           static_cast<double>(
                                               processes_.size()));
}

void SystemSim::npu_busy_for(double duration_s) {
  TOPIL_REQUIRE(duration_s >= 0.0, "duration must be non-negative");
  npu_busy_until_ = std::max(npu_busy_until_, now_ + duration_s);
}

void SystemSim::attach_monitor(SimMonitor* monitor) {
  TOPIL_REQUIRE(monitor != nullptr, "null monitor");
  monitors_.push_back(monitor);
  monitor->on_attach(*this);
}

void SystemSim::note_migration_epoch(double scheduled_time_s,
                                     double period_s) {
  TOPIL_REQUIRE(period_s > 0.0, "epoch period must be positive");
  for (SimMonitor* monitor : monitors_) {
    monitor->on_migration_epoch(*this, scheduled_time_s, period_s);
  }
}

void SystemSim::retire_finished() {
  for (auto it = processes_.begin(); it != processes_.end();) {
    if (it->second.finished()) {
      const Process& p = it->second;
      CompletedProcess rec;
      rec.pid = p.pid();
      rec.app_name = p.app().name;
      rec.qos_target_ips = p.qos_target_ips();
      rec.average_ips = p.lifetime_ips(now_);
      rec.arrival_time = p.arrival_time();
      rec.finish_time = p.finish_time();
      rec.below_target_fraction = p.qos_below_fraction(now_);
      rec.qos_violated =
          rec.average_ips < p.qos_target_ips() ||
          rec.below_target_fraction > config_.qos.max_below_fraction;
      metrics_.on_process_complete(rec);
      it = processes_.erase(it);
    } else {
      ++it;
    }
  }
}

// Hot entry: 64-byte aligned (tools/hot_symbols.sh).
__attribute__((aligned(64))) void SystemSim::tick_begin() {
  const double dt = config_.tick_s;
  const double t_end = now_ + dt;
  const std::size_t num_cores = platform_->num_cores();
  const std::size_t num_clusters = platform_->num_clusters();

  // 1. Group runnable processes by core, rebuilt from the process map on
  //    every tick (the queues keep only their capacity across ticks).
  for (auto& queue : run_queues_) queue.clear();
  for (auto& [pid, proc] : processes_) {
    run_queues_[proc.core()].push_back(&proc);
  }

  // Effective VF levels once per cluster: the DTM clamp's inputs cannot
  // change within a tick.
  for (ClusterId c = 0; c < num_clusters; ++c) {
    levels_[c] = config_.dtm_enabled ? dtm_.clamp(c, requested_levels_[c])
                                     : requested_levels_[c];
    busy_per_cluster_[c] = 0;
  }

  // 2. Execute: each core's processes share it fairly; governor overhead
  //    consumes capacity on its host core first. A cluster's cores are
  //    contiguous, so this visits cores in id order.
  const bool npu_on = npu_active();
  CoreId core = 0;
  for (ClusterId cluster = 0; cluster < num_clusters; ++cluster) {
    const ClusterSpec& spec = platform_->cluster(cluster);
    const double f = spec.vf.at(levels_[cluster]).freq_ghz;
    for (std::size_t k = 0; k < spec.num_cores; ++k, ++core) {
      const double overhead = std::min(pending_overhead_[core], dt);
      pending_overhead_[core] -= overhead;
      const double capacity = dt - overhead;

      double busy_fraction = overhead / dt;
      double act = 0.0;
      act += (overhead / dt) * 1.0;  // governor compute

      const std::vector<Process*>& procs = run_queues_[core];
      if (!procs.empty() && capacity > 0.0) {
        const double share = capacity / static_cast<double>(procs.size());
        for (Process* proc : procs) {
          proc->execute(cluster, f, share, t_end);
          act += (share / dt) * proc->activity(cluster);
        }
        busy_fraction = 1.0;
        busy_per_cluster_[cluster] += 1;
      } else if (!procs.empty()) {
        // Core fully consumed by governor overhead this tick.
        for (Process* proc : procs) proc->idle_tick(t_end);
        busy_fraction = 1.0;
        busy_per_cluster_[cluster] += 1;
      }

      // Utilization EWMA (alpha precomputed once: dt and tau are fixed).
      core_util_[core] += util_alpha_ * (busy_fraction - core_util_[core]);
      core_activity_[core] = act;
    }
  }

  // 3. Power update from the pre-step temperatures; the thermal advance
  //    between tick_begin and tick_finish consumes last_power_.
  const std::vector<double>& temps = thermal_.node_temps_c();
  for (CoreId c = 0; c < num_cores; ++c) {
    core_temps_[c] = temps[floorplan_.core_nodes[c]];
  }
  power_model_.compute_into(levels_, core_activity_, core_temps_, npu_on,
                            last_power_);
}

// Hot entry: 64-byte aligned (tools/hot_symbols.sh).
__attribute__((aligned(64))) void SystemSim::tick_finish() {
  const double dt = config_.tick_s;

  // 4. DTM and sensor observe the new state.
  now_ += dt;
  const double max_core_temp = thermal_.max_core_temp_c();
  if (config_.dtm_enabled) {
    const bool was_throttling = dtm_.throttling();
    dtm_.update(now_, max_core_temp);
    if (dtm_.throttling() && !was_throttling) metrics_.on_throttle_event();
  }
  sensor_reading_ = sensor_.observe(now_, max_core_temp);

  // 5. QoS accounting, metrics, and retirement of the processes that
  //    finished in this tick's execution.
  bool any_finished = false;
  for (auto& [pid, proc] : processes_) {
    if (proc.finished()) {
      any_finished = true;
      continue;
    }
    proc.account_qos(now_, dt, config_.qos.grace_s, config_.qos.tolerance);
  }
  metrics_.on_tick(now_, dt, max_core_temp, levels_, busy_per_cluster_);
  if (any_finished) retire_finished();
  ++tick_index_;
  for (SimMonitor* monitor : monitors_) monitor->on_tick(*this);
}

void SystemSim::step() {
  tick_begin();
  thermal_.step(last_power_, config_.tick_s);
  tick_finish();
}

void SystemSim::run_for(double duration_s) {
  run_until(now_ + duration_s);
}

void SystemSim::run_until(double time_s) {
  TOPIL_REQUIRE(time_s >= now_, "cannot run backwards");
  while (now_ + config_.tick_s * 0.5 < time_s) step();
}

}  // namespace topil
