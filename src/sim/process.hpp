#pragma once

#include <cstddef>
#include <deque>

#include "apps/app_model.hpp"

namespace topil {

namespace persist {
struct SnapshotAccess;
}

using Pid = std::size_t;
inline constexpr Pid kNoPid = static_cast<Pid>(-1);

/// Windowed rate estimator over cumulative counters (e.g. instructions
/// retired), mimicking how a userspace governor derives IPS from two `perf`
/// counter reads a fixed horizon apart.
class RateTracker {
 public:
  explicit RateTracker(double horizon_s = 0.2);

  void record(double time, double cumulative_value);
  /// Rate over the most recent horizon; 0 until two samples exist.
  double rate() const;
  void reset();

 private:
  friend struct persist::SnapshotAccess;  ///< checkpoint/restore

  double horizon_s_;
  std::deque<std::pair<double, double>> samples_;
};

/// Mutable run-time state of one application instance.
///
/// The scheduler-visible state (core, share) is maintained by SystemSim;
/// Process tracks execution progress through the app's phase sequence and
/// the cumulative performance counters a governor can sample.
class Process {
 public:
  Process(Pid pid, const AppSpec& app, double qos_target_ips,
          CoreId core, double arrival_time);
  /// A blank process, for a snapshot restore to fill.
  Process() = default;

  Pid pid() const { return pid_; }
  const AppSpec& app() const { return app_; }
  double qos_target_ips() const { return qos_target_ips_; }
  CoreId core() const { return core_; }
  double arrival_time() const { return arrival_time_; }

  bool finished() const { return finished_; }
  double finish_time() const { return finish_time_; }

  /// Cumulative performance counters (the `perf` API analogue).
  double instructions_retired() const { return instructions_; }
  double l2d_accesses() const { return l2d_accesses_; }

  /// IPS measured over the recent sampling window.
  double measured_ips() const { return ips_tracker_.rate(); }
  /// L2D accesses per second over the recent sampling window.
  double measured_l2d_rate() const { return l2d_tracker_.rate(); }

  std::size_t current_phase_index() const { return phase_index_; }
  const PhaseSpec& current_phase() const;

  /// Average IPS over the whole (finished or ongoing) execution.
  double lifetime_ips(double now) const;

  /// --- called by SystemSim ---

  void set_core(CoreId core) { core_ = core; }

  /// Apply a cold-cache migration penalty: until `until_time`, throughput
  /// is scaled by (1 - penalty). A penalty of exactly 1.0 is legal and
  /// stalls the process for the window (execute treats it as idle time).
  void apply_migration_penalty(double until_time, double penalty);

  /// Advance execution by `cpu_time_s` seconds of core time on `cluster`
  /// at `freq_ghz`; updates counters and phase progress.
  /// @param now  simulation time at the *end* of the interval
  void execute(ClusterId cluster, double freq_ghz, double cpu_time_s,
               double now);

  /// Record a counter sample even when the process got no CPU this tick.
  void idle_tick(double now);

  /// Accumulate QoS accounting for the past tick: counts time where the
  /// measured IPS was below `tolerance * target`, ignoring the first
  /// `grace_s` seconds after arrival (DVFS ramp-up).
  void account_qos(double now, double dt, double grace_s, double tolerance);

  /// Seconds spent below the QoS target (after the grace period).
  double qos_below_time_s() const { return qos_below_time_; }
  /// Seconds of post-grace lifetime observed by QoS accounting.
  double qos_observed_time_s() const { return qos_observed_time_; }
  /// Fraction of post-grace lifetime spent below the QoS target.
  double qos_below_fraction(double now) const;

  /// Switching-activity factor of the current phase on `cluster`.
  double activity(ClusterId cluster) const;

 private:
  friend struct persist::SnapshotAccess;  ///< checkpoint/restore

  Pid pid_ = kNoPid;
  // Owned copy: spawn() callers may pass temporaries, and a process must
  // outlive whatever constructed its spec.
  AppSpec app_;
  double qos_target_ips_ = 0.0;
  CoreId core_ = 0;
  double arrival_time_ = 0.0;

  std::size_t phase_index_ = 0;
  double phase_insts_done_ = 0.0;
  double instructions_ = 0.0;
  double l2d_accesses_ = 0.0;
  bool finished_ = false;
  double finish_time_ = 0.0;

  double penalty_until_ = 0.0;
  double penalty_ = 0.0;
  double qos_below_time_ = 0.0;
  double qos_observed_time_ = 0.0;

  // Window of ~one DVFS control period: a longer window would mix
  // measurements from the previous VF level and bias the linear-scaling
  // estimate (Eq. 1) right after a level change.
  RateTracker ips_tracker_{0.06};
  RateTracker l2d_tracker_{0.06};
};

}  // namespace topil
