#include "persist/snapshot.hpp"

#include "apps/app_model.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "governors/dvfs_control.hpp"
#include "governors/gts.hpp"
#include "nn/tensor.hpp"
#include "rl/mediator.hpp"
#include "rl/qtable.hpp"
#include "sim/metrics.hpp"
#include "sim/process.hpp"
#include "sim/system_sim.hpp"
#include "thermal/dtm.hpp"
#include "thermal/sensor.hpp"

namespace topil::persist {

namespace {

const std::vector<double>& node_temps(const ThermalModel& thermal) {
  return thermal.node_temps_c();
}
std::vector<double>& node_temps(ThermalModel& thermal) {
  return thermal.mutable_node_temps_c();
}

}  // namespace

// --- free-standing values -----------------------------------------------

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, Rng> rng) {
  Mt19937_64::State state = rng.engine().state();
  io.array(state.words.data(), state.words.size());
  io.u64(state.position);
  if constexpr (Io::kReading) rng.engine().set_state(state);
}

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, nn::Matrix> m) {
  std::size_t rows = m.rows();
  std::size_t cols = m.cols();
  io.u64(rows);
  io.u64(cols);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(rows <= (1u << 20) && cols <= (1u << 20) &&
                      (cols == 0 ||
                       rows <= io.remaining() / sizeof(float) / cols),
                  "snapshot: implausible matrix dimensions");
    m.resize(rows, cols);
  }
  io.array(m.data(), m.size());
}

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, AppSpec> app) {
  io.str(app.name);
  io.boolean(app.used_for_training);
  io.seq(app.phases, [&](auto& phase) {
    io.str(phase.name);
    io.f64(phase.instructions);
    io.f64(phase.l2d_per_inst);
    io.seq(phase.perf, [&](auto& perf) {
      io.f64(perf.cpi);
      io.f64(perf.mem_ns_per_inst);
      io.f64(perf.activity);
    });
  });
}

// --- small accumulators -------------------------------------------------

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, RunningStats> stats) {
  io.u64(stats.n_);
  io.f64(stats.mean_);
  io.f64(stats.m2_);
  io.f64(stats.min_);
  io.f64(stats.max_);
  io.f64(stats.sum_);
}

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, TimeWeightedAverage> avg) {
  io.boolean(avg.started_);
  io.boolean(avg.have_value_);
  io.f64(avg.start_time_);
  io.f64(avg.last_time_);
  io.f64(avg.last_value_);
  io.f64(avg.integral_);
}

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, RateTracker> tracker) {
  io.f64(tracker.horizon_s_);
  io.seq(tracker.samples_, [&](auto& sample) {
    io.f64(sample.first);
    io.f64(sample.second);
  });
}

// --- thermal periphery --------------------------------------------------

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, ThermalSensor> sensor) {
  io.tag("SEN ");
  fields(io, sensor.rng_);
  io.boolean(sensor.has_sample_);
  io.f64(sensor.next_sample_time_);
  io.f64(sensor.held_value_);
}

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, Dtm> dtm) {
  io.tag("DTM ");
  fixed_seq(io, dtm.cap_, "DTM cap");
  io.f64(dtm.next_update_);
  io.boolean(dtm.throttling_);
  io.u64(dtm.throttle_events_);
}

// --- metrics ------------------------------------------------------------

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, Metrics> metrics) {
  io.tag("MET ");
  fields(io, metrics.temp_avg_);
  io.f64(metrics.peak_temp_c_);
  io.boolean(metrics.any_temp_);
  std::size_t clusters = metrics.cpu_time_.size();
  io.u64(clusters);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(clusters == metrics.cpu_time_.size(),
                  "snapshot: metrics cluster count does not match");
  }
  for (auto& per_level : metrics.cpu_time_) {
    fixed_seq(io, per_level, "metrics VF level");
  }
  io.seq(metrics.completed_, [&](auto& rec) {
    io.u64(rec.pid);
    io.str(rec.app_name);
    io.f64(rec.qos_target_ips);
    io.f64(rec.average_ips);
    io.f64(rec.arrival_time);
    io.f64(rec.finish_time);
    io.f64(rec.below_target_fraction);
    io.boolean(rec.qos_violated);
  });
  io.seq(metrics.overhead_, [&](auto& entry) {
    io.str(entry.first);
    io.f64(entry.second);
  });
  io.u64(metrics.throttle_events_);
  io.f64(metrics.last_time_);
  fields(io, metrics.util_avg_);
  io.f64(metrics.peak_util_);
}

// --- the simulator ------------------------------------------------------

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, Process> proc,
                            Ref<Io, SystemSim> sim) {
  fields(io, proc.app_);
  io.f64(proc.qos_target_ips_);
  io.u64(proc.core_);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(proc.qos_target_ips_ > 0.0,
                  "snapshot: process QoS target must be positive");
    TOPIL_REQUIRE(proc.core_ < sim.platform().num_cores(),
                  "snapshot: process core out of range");
    sim.require_runnable(proc.app_);
  }
  io.f64(proc.arrival_time_);
  io.u64(proc.phase_index_);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(proc.phase_index_ < proc.app_.phases.size(),
                  "snapshot: process phase index past its last phase");
  }
  io.f64(proc.phase_insts_done_);
  io.f64(proc.instructions_);
  io.f64(proc.l2d_accesses_);
  io.boolean(proc.finished_);
  // tick_finish retires a process in the tick it finishes, so no step
  // boundary (the only snapshot point) holds a finished one.
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(!proc.finished_, "snapshot: finished process");
  }
  io.f64(proc.finish_time_);
  io.f64(proc.penalty_until_);
  io.f64(proc.penalty_);
  io.f64(proc.qos_below_time_);
  io.f64(proc.qos_observed_time_);
  fields(io, proc.ips_tracker_);
  fields(io, proc.l2d_tracker_);
}

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, SystemSim> sim) {
  io.tag("SIM ");
  io.u64(sim.tick_index_);
  io.f64(sim.now_);
  io.u64(sim.next_pid_);
  fields(io, sim.rng_);
  fields(io, sim.sensor_);
  fields(io, sim.dtm_);
  fixed_seq(io, node_temps(sim.thermal_), "thermal node");
  fixed_seq(io, sim.requested_levels_, "cluster");
  fixed_seq(io, sim.core_util_, "core");
  fixed_seq(io, sim.pending_overhead_, "overhead");
  io.f64(sim.sensor_reading_);
  io.f64(sim.npu_busy_until_);
  io.seq(sim.last_power_.core_w);
  io.seq(sim.last_power_.uncore_w);
  // A freshly constructed sim has an empty power breakdown (it is filled
  // by the first step), so check it against the platform.
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(sim.last_power_.core_w.size() ==
                          sim.platform().num_cores() &&
                      sim.last_power_.uncore_w.size() ==
                          sim.requested_levels_.size(),
                  "snapshot: power breakdown does not match the platform");
  }
  io.f64(sim.last_power_.npu_w);
  fields(io, sim.metrics_);
  io.tag("PRC ");
  io.seq(sim.processes_, [&](auto& entry) {
    io.u64(entry.first);
    fields(io, entry.second, sim);
    if constexpr (Io::kReading) entry.second.pid_ = entry.first;
  });
}

// --- governor components ------------------------------------------------

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, DvfsControlLoop> loop) {
  io.tag("DVF ");
  io.f64(loop.next_run_);
  io.u64(loop.skip_);
}

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, GtsScheduler> scheduler) {
  io.tag("GTS ");
  io.f64(scheduler.next_run_);
}

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, rl::QTable> table) {
  io.tag("QTB ");
  std::size_t states = table.num_states_;
  std::size_t actions = table.num_actions_;
  io.u64(states);
  io.u64(actions);
  if constexpr (Io::kReading) {
    TOPIL_REQUIRE(states == table.num_states_ && actions == table.num_actions_,
                  "snapshot: Q-table dimensions do not match");
  }
  fixed_seq(io, table.values_, "Q-table value");
}

template <typename Io>
void SnapshotAccess::fields(Io& io, Ref<Io, rl::RlMigrationController> c) {
  io.tag("RLC ");
  fields(io, c.table_b_);
  fields(io, c.rng_);
  io.boolean(c.learning_);
  io.optional(c.pending_, [&](auto& pending) {
    io.u64(pending.pid);
    io.u64(pending.state);
    io.u64(pending.action);
  });
}

// The field lists that other files call, in both directions.
template void SnapshotAccess::fields(StateWriter&, const SystemSim&);
template void SnapshotAccess::fields(StateReader&, SystemSim&);
template void SnapshotAccess::fields(StateWriter&, const DvfsControlLoop&);
template void SnapshotAccess::fields(StateReader&, DvfsControlLoop&);
template void SnapshotAccess::fields(StateWriter&, const GtsScheduler&);
template void SnapshotAccess::fields(StateReader&, GtsScheduler&);
template void SnapshotAccess::fields(StateWriter&, const rl::QTable&);
template void SnapshotAccess::fields(StateReader&, rl::QTable&);
template void SnapshotAccess::fields(StateWriter&,
                                    const rl::RlMigrationController&);
template void SnapshotAccess::fields(StateReader&, rl::RlMigrationController&);
template void SnapshotAccess::fields(StateWriter&, const RunningStats&);
template void SnapshotAccess::fields(StateReader&, RunningStats&);
template void SnapshotAccess::fields(StateWriter&, const Rng&);
template void SnapshotAccess::fields(StateReader&, Rng&);
template void SnapshotAccess::fields(StateWriter&, const nn::Matrix&);
template void SnapshotAccess::fields(StateReader&, nn::Matrix&);
template void SnapshotAccess::fields(StateWriter&, const AppSpec&);
template void SnapshotAccess::fields(StateReader&, AppSpec&);

}  // namespace topil::persist
