#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "platform/floorplan.hpp"
#include "platform/platform.hpp"
#include "power/power_model.hpp"
#include "sim/metrics.hpp"
#include "sim/migration.hpp"
#include "sim/process.hpp"
#include "sim/sim_monitor.hpp"
#include "thermal/dtm.hpp"
#include "thermal/sensor.hpp"
#include "thermal/thermal_model.hpp"

namespace topil {

namespace fleet {
struct SimAccess;
}
namespace persist {
struct SnapshotAccess;
}

/// How QoS violations are judged (paper: an application counts as
/// violating when it fails to sustain its IPS target — transient dips
/// right after arrival or a migration are part of normal operation, but
/// sustained shortfall is not).
struct QosAccounting {
  /// Settling time after arrival before QoS is judged (DVFS ramp-up).
  double grace_s = 2.0;
  /// Instantaneous shortfall margin: below tolerance*target counts.
  double tolerance = 1.0;
  /// An app is violating when below-target time exceeds this fraction of
  /// its post-grace lifetime (or its lifetime-average IPS misses the
  /// target outright).
  double max_below_fraction = 0.10;
};

/// Simulation parameters.
struct SimConfig {
  double tick_s = 0.01;
  ThermalSensor::Config sensor{};
  Dtm::Config dtm{};
  bool dtm_enabled = true;
  MigrationConfig migration{};
  FloorplanParams floorplan{};
  QosAccounting qos{};
  /// EWMA time constant for per-core utilization tracking.
  double utilization_tau_s = 0.2;
  /// Run the simulator under the runtime invariant checker (src/validate).
  /// The experiment layer attaches a validate::InvariantChecker, which
  /// throws validate::ValidationError on the first violated invariant.
  bool validate = false;
  /// Transient thermal scheme. Heun keeps historical bit-exact traces;
  /// Exponential does one precomputed matvec per tick (bench default).
  ThermalIntegrator integrator = ThermalIntegrator::Heun;
  std::uint64_t seed = 1;
};

/// Discrete-time full-system simulator of the HiKey970-class platform.
///
/// SystemSim advances in fixed ticks. Within each tick, every core's
/// runnable processes share the core equally (fair scheduling), advance
/// their instruction streams through the analytic performance model, and
/// the resulting per-block power drives the transient thermal network.
///
/// Governors observe the system exclusively through the *observable*
/// interface (perf-counter rates, core utilizations, VF levels, and the
/// noisy on-board temperature sensor) and actuate through `migrate` and
/// `request_vf_level` — the same surface the paper's userspace daemon has
/// on the real board. True node temperatures and power are available via
/// `thermal()` for oracle trace collection and for evaluation metrics only.
class SystemSim {
 public:
  SystemSim(const PlatformSpec& platform, const CoolingConfig& cooling,
            const SimConfig& config = {});

  // --- process lifecycle ---

  /// Start an application instance pinned to `core`. Returns its pid.
  Pid spawn(const AppSpec& app, double qos_target_ips, CoreId core);

  /// Set CPU affinity of a running process (the migration knob).
  void migrate(Pid pid, CoreId core);

  const Process& process(Pid pid) const;
  bool is_running(Pid pid) const;
  std::vector<Pid> running_pids() const;
  std::size_t num_running() const;
  /// Pids currently pinned to `core`.
  std::vector<Pid> pids_on_core(CoreId core) const;

  // --- DVFS (userspace governor interface) ---

  /// Request a per-cluster VF level; the effective level is additionally
  /// clamped by DTM when thermal throttling is active.
  void request_vf_level(ClusterId cluster, std::size_t level);
  std::size_t requested_vf_level(ClusterId cluster) const;
  /// Effective level after DTM clamping.
  std::size_t vf_level(ClusterId cluster) const;
  double freq_ghz(ClusterId cluster) const;

  // --- observable state (what a userspace daemon can read) ---

  double now() const { return now_; }
  /// Latest on-board sensor reading (noisy, quantized, 20 Hz).
  double sensor_temp_c() const { return sensor_reading_; }
  /// Recent-window utilization of a core in [0, 1].
  double core_utilization(CoreId core) const;
  /// True if any process is pinned to the core right now.
  bool core_occupied(CoreId core) const;

  /// Charge governor compute to a core: the time is consumed from that
  /// core's capacity over the following ticks and recorded per component
  /// in the metrics (used for the run-time overhead evaluation).
  void charge_overhead(const std::string& component, double cpu_s,
                       CoreId core = 0);

  /// Mark the NPU busy for `duration_s` of wall time (non-blocking call).
  void npu_busy_for(double duration_s);
  bool npu_active() const { return now_ < npu_busy_until_; }

  /// Periodic governors report every scheduled decision deadline here so
  /// an attached monitor can verify the epoch cadence (deadlines exactly
  /// `period_s` apart, honored within one tick). No-op without a monitor.
  void note_migration_epoch(double scheduled_time_s, double period_s);

  // --- stepping ---

  void step();
  void run_for(double duration_s);
  void run_until(double time_s);

  // --- split-phase stepping (fleet engine) ---

  /// Reusable per-tick buffers for the split-phase step. A `step()` is
  /// exactly `tick_begin(s); thermal().step(last_power(), tick_s);
  /// tick_finish(s)` — the split exists so the fleet engine can interleave
  /// phase boundaries across many simulations and replace the per-lane
  /// thermal matvec with one batched matrix-matrix product. Lanes keep one
  /// scratch alive across ticks, which also removes every per-tick heap
  /// allocation of the scalar path (the dominant scalar cost; see
  /// bench/perf_fleet).
  struct TickScratch {
    std::vector<std::vector<Process*>> per_core;
    std::vector<double> core_activity;
    std::vector<std::size_t> busy_per_cluster;
    std::vector<double> core_temps;
    std::vector<std::size_t> levels;
  };

  /// Phases 1-3a of a tick: process execution, utilization EWMA, and the
  /// power-model update (fills `last_power()`). The caller must follow
  /// with exactly one thermal advance by `config().tick_s` and then
  /// `tick_finish` with the same scratch.
  void tick_begin(TickScratch& scratch);
  /// Phases 4-5: clock advance, DTM/sensor observation, QoS accounting,
  /// metrics, retirement, and the monitor callback.
  void tick_finish(TickScratch& scratch);

  // --- evaluation-only access (not visible to governors) ---

  ThermalModel& thermal() { return thermal_; }
  const ThermalModel& thermal() const { return thermal_; }
  const Metrics& metrics() const { return metrics_; }
  Metrics& metrics() { return metrics_; }
  const Dtm& dtm() const { return dtm_; }
  const PlatformSpec& platform() const { return *platform_; }
  const SimConfig& config() const { return config_; }
  const PowerModel& power_model() const { return power_model_; }
  /// Block power of the most recent tick.
  const PowerBreakdown& last_power() const { return last_power_; }
  /// Number of completed steps since construction.
  std::uint64_t tick_index() const { return tick_index_; }

  /// Attach a correctness monitor (nullptr detaches). The monitor is
  /// invoked at the end of every step and must outlive the simulation.
  void attach_monitor(SimMonitor* monitor);
  SimMonitor* monitor() const { return monitor_; }

 private:
  // The fleet engine's fused lane tick (sim/fleet/lane_tick.cpp) is a
  // bit-exact re-implementation of tick_begin/tick_finish over this state;
  // all of its private access goes through the SimAccess gateway.
  friend struct fleet::SimAccess;
  // Checkpoint/restore (src/persist/snapshot.cpp) serializes this state.
  friend struct persist::SnapshotAccess;

  const PlatformSpec* platform_;
  SimConfig config_;
  Floorplan floorplan_;
  PowerModel power_model_;
  ThermalModel thermal_;
  ThermalSensor sensor_;
  Dtm dtm_;
  Metrics metrics_;
  Rng rng_;

  double now_ = 0.0;
  double util_alpha_ = 0.0;  ///< per-tick utilization EWMA coefficient
  Pid next_pid_ = 1;
  std::map<Pid, Process> processes_;
  std::vector<std::size_t> requested_levels_;
  std::vector<double> core_util_;
  std::vector<double> pending_overhead_;
  double sensor_reading_ = 0.0;
  double npu_busy_until_ = 0.0;
  PowerBreakdown last_power_;
  std::uint64_t tick_index_ = 0;
  SimMonitor* monitor_ = nullptr;

  Process& mutable_process(Pid pid);
  void retire_finished();
};

}  // namespace topil
