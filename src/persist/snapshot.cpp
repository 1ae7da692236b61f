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

// --- free helpers -------------------------------------------------------

void save_rng(StateWriter& out, const Rng& rng) {
  const Mt19937_64::State& state = rng.engine().state();
  out.raw(state.words.data(), sizeof(state.words));
  out.size(state.position);
}

void restore_rng(StateReader& in, Rng& rng) {
  Mt19937_64::State state{};
  for (std::uint64_t& word : state.words) word = in.u64();
  state.position = in.size();
  rng.engine().set_state(state);
}

void save_matrix(StateWriter& out, const nn::Matrix& m) {
  out.u64(m.rows());
  out.u64(m.cols());
  out.raw(m.data(), m.size() * sizeof(float));
}

nn::Matrix restore_matrix(StateReader& in) {
  const std::size_t rows = in.size();
  const std::size_t cols = in.size();
  TOPIL_REQUIRE(rows <= (1u << 20) && cols <= (1u << 20) &&
                    rows * cols * sizeof(float) <= in.remaining(),
                "snapshot: implausible matrix dimensions");
  nn::Matrix m(rows, cols);
  std::vector<float> data(rows * cols);
  for (float& v : data) v = in.f32();
  std::copy(data.begin(), data.end(), m.data());
  return m;
}

void save_app_spec(StateWriter& out, const AppSpec& app) {
  out.str(app.name);
  out.boolean(app.used_for_training);
  out.u64(app.phases.size());
  for (const PhaseSpec& phase : app.phases) {
    out.str(phase.name);
    out.f64(phase.instructions);
    out.f64(phase.l2d_per_inst);
    out.u64(phase.perf.size());
    for (const ClusterPerf& perf : phase.perf) {
      out.f64(perf.cpi);
      out.f64(perf.mem_ns_per_inst);
      out.f64(perf.activity);
    }
  }
}

AppSpec restore_app_spec(StateReader& in) {
  AppSpec app;
  app.name = in.str();
  app.used_for_training = in.boolean();
  const std::size_t num_phases = in.size();
  TOPIL_REQUIRE(num_phases <= 4096, "snapshot: implausible phase count");
  app.phases.reserve(num_phases);
  for (std::size_t p = 0; p < num_phases; ++p) {
    PhaseSpec phase;
    phase.name = in.str();
    phase.instructions = in.f64();
    phase.l2d_per_inst = in.f64();
    const std::size_t num_perf = in.size();
    TOPIL_REQUIRE(num_perf <= 4096, "snapshot: implausible cluster count");
    phase.perf.reserve(num_perf);
    for (std::size_t c = 0; c < num_perf; ++c) {
      ClusterPerf perf;
      perf.cpi = in.f64();
      perf.mem_ns_per_inst = in.f64();
      perf.activity = in.f64();
      phase.perf.push_back(perf);
    }
    app.phases.push_back(std::move(phase));
  }
  return app;
}

// --- small accumulators -------------------------------------------------

void SnapshotAccess::save(StateWriter& out, const RunningStats& stats) {
  out.u64(stats.n_);
  out.f64(stats.mean_);
  out.f64(stats.m2_);
  out.f64(stats.min_);
  out.f64(stats.max_);
  out.f64(stats.sum_);
}

void SnapshotAccess::restore(StateReader& in, RunningStats& stats) {
  stats.n_ = in.size();
  stats.mean_ = in.f64();
  stats.m2_ = in.f64();
  stats.min_ = in.f64();
  stats.max_ = in.f64();
  stats.sum_ = in.f64();
}

void SnapshotAccess::save(StateWriter& out, const TimeWeightedAverage& avg) {
  out.boolean(avg.started_);
  out.boolean(avg.have_value_);
  out.f64(avg.start_time_);
  out.f64(avg.last_time_);
  out.f64(avg.last_value_);
  out.f64(avg.integral_);
}

void SnapshotAccess::restore(StateReader& in, TimeWeightedAverage& avg) {
  avg.started_ = in.boolean();
  avg.have_value_ = in.boolean();
  avg.start_time_ = in.f64();
  avg.last_time_ = in.f64();
  avg.last_value_ = in.f64();
  avg.integral_ = in.f64();
}

void SnapshotAccess::save(StateWriter& out, const RateTracker& tracker) {
  out.f64(tracker.horizon_s_);
  out.u64(tracker.samples_.size());
  for (const auto& [time, value] : tracker.samples_) {
    out.f64(time);
    out.f64(value);
  }
}

void SnapshotAccess::restore(StateReader& in, RateTracker& tracker) {
  tracker.horizon_s_ = in.f64();
  const std::size_t n = in.size();
  TOPIL_REQUIRE(n * 2 * sizeof(double) <= in.remaining(),
                "snapshot: implausible rate-tracker sample count");
  tracker.samples_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double time = in.f64();
    const double value = in.f64();
    tracker.samples_.emplace_back(time, value);
  }
}

// --- thermal periphery --------------------------------------------------

void SnapshotAccess::save(StateWriter& out, const ThermalSensor& sensor) {
  out.tag("SEN ");
  save_rng(out, sensor.rng_);
  out.boolean(sensor.has_sample_);
  out.f64(sensor.next_sample_time_);
  out.f64(sensor.held_value_);
}

void SnapshotAccess::restore(StateReader& in, ThermalSensor& sensor) {
  in.expect_tag("SEN ");
  restore_rng(in, sensor.rng_);
  sensor.has_sample_ = in.boolean();
  sensor.next_sample_time_ = in.f64();
  sensor.held_value_ = in.f64();
}

void SnapshotAccess::save(StateWriter& out, const Dtm& dtm) {
  out.tag("DTM ");
  out.vec_size(dtm.cap_);
  out.f64(dtm.next_update_);
  out.boolean(dtm.throttling_);
  out.u64(dtm.throttle_events_);
}

void SnapshotAccess::restore(StateReader& in, Dtm& dtm) {
  in.expect_tag("DTM ");
  const std::vector<std::size_t> cap = in.vec_size();
  TOPIL_REQUIRE(cap.size() == dtm.cap_.size(),
                "snapshot: DTM cap count does not match the platform");
  dtm.cap_ = cap;
  dtm.next_update_ = in.f64();
  dtm.throttling_ = in.boolean();
  dtm.throttle_events_ = in.size();
}

// --- metrics ------------------------------------------------------------

void SnapshotAccess::save(StateWriter& out, const Metrics& metrics) {
  out.tag("MET ");
  save(out, metrics.temp_avg_);
  out.f64(metrics.peak_temp_c_);
  out.boolean(metrics.any_temp_);
  out.u64(metrics.cpu_time_.size());
  for (const auto& per_level : metrics.cpu_time_) out.vec_f64(per_level);
  out.u64(metrics.completed_.size());
  for (const CompletedProcess& rec : metrics.completed_) {
    out.u64(rec.pid);
    out.str(rec.app_name);
    out.f64(rec.qos_target_ips);
    out.f64(rec.average_ips);
    out.f64(rec.arrival_time);
    out.f64(rec.finish_time);
    out.f64(rec.below_target_fraction);
    out.boolean(rec.qos_violated);
  }
  out.u64(metrics.overhead_.size());
  for (const auto& [component, cpu_s] : metrics.overhead_) {
    out.str(component);
    out.f64(cpu_s);
  }
  out.u64(metrics.throttle_events_);
  out.f64(metrics.last_time_);
  save(out, metrics.util_avg_);
  out.f64(metrics.peak_util_);
}

void SnapshotAccess::restore(StateReader& in, Metrics& metrics) {
  in.expect_tag("MET ");
  restore(in, metrics.temp_avg_);
  metrics.peak_temp_c_ = in.f64();
  metrics.any_temp_ = in.boolean();
  const std::size_t clusters = in.size();
  TOPIL_REQUIRE(clusters == metrics.cpu_time_.size(),
                "snapshot: metrics cluster count does not match");
  for (std::size_t c = 0; c < clusters; ++c) {
    std::vector<double> per_level = in.vec_f64();
    TOPIL_REQUIRE(per_level.size() == metrics.cpu_time_[c].size(),
                  "snapshot: metrics VF level count does not match");
    metrics.cpu_time_[c] = std::move(per_level);
  }
  const std::size_t completed = in.size();
  TOPIL_REQUIRE(completed * 8 <= in.remaining(),
                "snapshot: implausible completed-process count");
  metrics.completed_.clear();
  metrics.completed_.reserve(completed);
  for (std::size_t i = 0; i < completed; ++i) {
    CompletedProcess rec;
    rec.pid = in.size();
    rec.app_name = in.str();
    rec.qos_target_ips = in.f64();
    rec.average_ips = in.f64();
    rec.arrival_time = in.f64();
    rec.finish_time = in.f64();
    rec.below_target_fraction = in.f64();
    rec.qos_violated = in.boolean();
    metrics.completed_.push_back(std::move(rec));
  }
  const std::size_t overheads = in.size();
  TOPIL_REQUIRE(overheads * 8 <= in.remaining(),
                "snapshot: implausible overhead entry count");
  metrics.overhead_.clear();
  for (std::size_t i = 0; i < overheads; ++i) {
    std::string component = in.str();
    metrics.overhead_[std::move(component)] = in.f64();
  }
  metrics.throttle_events_ = in.size();
  metrics.last_time_ = in.f64();
  restore(in, metrics.util_avg_);
  metrics.peak_util_ = in.f64();
}

// --- processes ----------------------------------------------------------

void SnapshotAccess::save_processes(StateWriter& out, const SystemSim& sim) {
  out.tag("PRC ");
  out.u64(sim.processes_.size());
  for (const auto& [pid, proc] : sim.processes_) {
    out.u64(pid);
    save_app_spec(out, proc.app_);
    out.f64(proc.qos_target_ips_);
    out.u64(proc.core_);
    out.f64(proc.arrival_time_);
    out.u64(proc.phase_index_);
    out.f64(proc.phase_insts_done_);
    out.f64(proc.instructions_);
    out.f64(proc.l2d_accesses_);
    out.boolean(proc.finished_);
    out.f64(proc.finish_time_);
    out.f64(proc.penalty_until_);
    out.f64(proc.penalty_);
    out.f64(proc.qos_below_time_);
    out.f64(proc.qos_observed_time_);
    save(out, proc.ips_tracker_);
    save(out, proc.l2d_tracker_);
  }
}

void SnapshotAccess::restore_processes(StateReader& in, SystemSim& sim) {
  in.expect_tag("PRC ");
  const std::size_t count = in.size();
  TOPIL_REQUIRE(count * 16 <= in.remaining(),
                "snapshot: implausible process count");
  sim.processes_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const Pid pid = in.size();
    const AppSpec app = restore_app_spec(in);
    const double qos = in.f64();
    const CoreId core = static_cast<CoreId>(in.size());
    TOPIL_REQUIRE(core < sim.platform().num_cores(),
                  "snapshot: process core out of range");
    sim.require_runnable(app);
    const double arrival = in.f64();
    Process proc(pid, app, qos, core, arrival);
    proc.phase_index_ = in.size();
    TOPIL_REQUIRE(proc.phase_index_ < app.phases.size(),
                  "snapshot: process phase index past its last phase");
    proc.phase_insts_done_ = in.f64();
    proc.instructions_ = in.f64();
    proc.l2d_accesses_ = in.f64();
    proc.finished_ = in.boolean();
    // tick_finish retires a process in the tick it finishes, so no step
    // boundary (the only snapshot point) holds a finished one.
    TOPIL_REQUIRE(!proc.finished_, "snapshot: finished process");
    proc.finish_time_ = in.f64();
    proc.penalty_until_ = in.f64();
    proc.penalty_ = in.f64();
    proc.qos_below_time_ = in.f64();
    proc.qos_observed_time_ = in.f64();
    restore(in, proc.ips_tracker_);
    restore(in, proc.l2d_tracker_);
    sim.processes_.emplace(pid, std::move(proc));
  }
}

// --- the simulator ------------------------------------------------------

void SnapshotAccess::save(StateWriter& out, const SystemSim& sim) {
  out.tag("SIM ");
  out.u64(sim.tick_index_);
  out.f64(sim.now_);
  out.u64(sim.next_pid_);
  save_rng(out, sim.rng_);
  save(out, sim.sensor_);
  save(out, sim.dtm_);
  out.vec_f64(sim.thermal_.node_temps_c());
  out.vec_size(sim.requested_levels_);
  out.vec_f64(sim.core_util_);
  out.vec_f64(sim.pending_overhead_);
  out.f64(sim.sensor_reading_);
  out.f64(sim.npu_busy_until_);
  out.vec_f64(sim.last_power_.core_w);
  out.vec_f64(sim.last_power_.uncore_w);
  out.f64(sim.last_power_.npu_w);
  save(out, sim.metrics_);
  save_processes(out, sim);
}

void SnapshotAccess::restore(StateReader& in, SystemSim& sim) {
  in.expect_tag("SIM ");
  sim.tick_index_ = in.size();
  sim.now_ = in.f64();
  sim.next_pid_ = in.size();
  restore_rng(in, sim.rng_);
  restore(in, sim.sensor_);
  restore(in, sim.dtm_);
  const std::vector<double> temps = in.vec_f64();
  TOPIL_REQUIRE(temps.size() == sim.thermal_.node_temps_c().size(),
                "snapshot: thermal node count does not match the platform");
  sim.thermal_.set_node_temps_c(temps);
  const std::vector<std::size_t> levels = in.vec_size();
  TOPIL_REQUIRE(levels.size() == sim.requested_levels_.size(),
                "snapshot: cluster count does not match the platform");
  sim.requested_levels_ = levels;
  const std::vector<double> util = in.vec_f64();
  TOPIL_REQUIRE(util.size() == sim.core_util_.size(),
                "snapshot: core count does not match the platform");
  sim.core_util_ = util;
  const std::vector<double> overhead = in.vec_f64();
  TOPIL_REQUIRE(overhead.size() == sim.pending_overhead_.size(),
                "snapshot: overhead vector does not match the platform");
  sim.pending_overhead_ = overhead;
  sim.sensor_reading_ = in.f64();
  sim.npu_busy_until_ = in.f64();
  // A freshly constructed sim has an empty power breakdown (it is filled
  // by the first step), so validate against the platform, not the member.
  const std::vector<double> core_w = in.vec_f64();
  const std::vector<double> uncore_w = in.vec_f64();
  TOPIL_REQUIRE(core_w.size() == sim.platform().num_cores() &&
                    uncore_w.size() == sim.requested_levels_.size(),
                "snapshot: power breakdown does not match the platform");
  sim.last_power_.core_w = core_w;
  sim.last_power_.uncore_w = uncore_w;
  sim.last_power_.npu_w = in.f64();
  restore(in, sim.metrics_);
  restore_processes(in, sim);
}

// --- governor components ------------------------------------------------

void SnapshotAccess::save(StateWriter& out, const DvfsControlLoop& loop) {
  out.tag("DVF ");
  out.f64(loop.next_run_);
  out.u64(loop.skip_);
}

void SnapshotAccess::restore(StateReader& in, DvfsControlLoop& loop) {
  in.expect_tag("DVF ");
  loop.next_run_ = in.f64();
  loop.skip_ = in.size();
}

void SnapshotAccess::save(StateWriter& out, const GtsScheduler& scheduler) {
  out.tag("GTS ");
  out.f64(scheduler.next_run_);
}

void SnapshotAccess::restore(StateReader& in, GtsScheduler& scheduler) {
  in.expect_tag("GTS ");
  scheduler.next_run_ = in.f64();
}

void SnapshotAccess::save(StateWriter& out, const rl::QTable& table) {
  out.tag("QTB ");
  out.u64(table.num_states_);
  out.u64(table.num_actions_);
  out.vec_f64(table.values_);
}

void SnapshotAccess::restore(StateReader& in, rl::QTable& table) {
  in.expect_tag("QTB ");
  const std::size_t states = in.size();
  const std::size_t actions = in.size();
  TOPIL_REQUIRE(states == table.num_states_ && actions == table.num_actions_,
                "snapshot: Q-table dimensions do not match");
  std::vector<double> values = in.vec_f64();
  TOPIL_REQUIRE(values.size() == table.values_.size(),
                "snapshot: Q-table value count does not match");
  table.values_ = std::move(values);
}

void SnapshotAccess::save(StateWriter& out,
                          const rl::RlMigrationController& c) {
  out.tag("RLC ");
  save(out, c.table_b_);
  save_rng(out, c.rng_);
  out.boolean(c.learning_);
  out.boolean(c.pending_.has_value());
  if (c.pending_.has_value()) {
    out.u64(c.pending_->pid);
    out.u64(c.pending_->state);
    out.u64(c.pending_->action);
  }
}

void SnapshotAccess::restore(StateReader& in, rl::RlMigrationController& c) {
  in.expect_tag("RLC ");
  restore(in, c.table_b_);
  restore_rng(in, c.rng_);
  c.learning_ = in.boolean();
  if (in.boolean()) {
    rl::RlMigrationController::Pending pending;
    pending.pid = in.size();
    pending.state = in.size();
    pending.action = in.size();
    c.pending_ = pending;
  } else {
    c.pending_.reset();
  }
}

}  // namespace topil::persist
