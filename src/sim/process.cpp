#include "sim/process.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace topil {

RateTracker::RateTracker(double horizon_s) : horizon_s_(horizon_s) {
  TOPIL_REQUIRE(horizon_s > 0.0, "rate horizon must be positive");
}

void RateTracker::record(double time, double cumulative_value) {
  if (!samples_.empty()) {
    TOPIL_REQUIRE(time >= samples_.back().first, "time must be monotonic");
  }
  samples_.emplace_back(time, cumulative_value);
  // Keep one sample older than the horizon so the window always spans it.
  while (samples_.size() > 2 &&
         samples_[1].first <= time - horizon_s_) {
    samples_.pop_front();
  }
}

double RateTracker::rate() const {
  if (samples_.size() < 2) return 0.0;
  const auto& [t0, v0] = samples_.front();
  const auto& [t1, v1] = samples_.back();
  const double dt = t1 - t0;
  if (dt <= 0.0) return 0.0;
  return (v1 - v0) / dt;
}

void RateTracker::reset() { samples_.clear(); }

Process::Process(Pid pid, const AppSpec& app, double qos_target_ips,
                 CoreId core, double arrival_time)
    : pid_(pid),
      app_(app),
      qos_target_ips_(qos_target_ips),
      core_(core),
      arrival_time_(arrival_time) {
  TOPIL_REQUIRE(!app.phases.empty(), "app has no phases");
  TOPIL_REQUIRE(qos_target_ips > 0.0, "QoS target must be positive");
}

const PhaseSpec& Process::current_phase() const {
  const std::size_t idx = std::min(phase_index_, app_.phases.size() - 1);
  return app_.phases[idx];
}

double Process::lifetime_ips(double now) const {
  const double end = finished_ ? finish_time_ : now;
  const double duration = end - arrival_time_;
  if (duration <= 0.0) return 0.0;
  return instructions_ / duration;
}

void Process::apply_migration_penalty(double until_time, double penalty) {
  TOPIL_REQUIRE(penalty >= 0.0 && penalty <= 1.0, "penalty out of range");
  penalty_until_ = until_time;
  penalty_ = penalty;
}

double Process::activity(ClusterId cluster) const {
  const PhaseSpec& p = current_phase();
  TOPIL_REQUIRE(cluster < p.perf.size(), "no perf data for cluster");
  return p.perf[cluster].activity;
}

void Process::execute(ClusterId cluster, double freq_ghz, double cpu_time_s,
                      double now) {
  TOPIL_ASSERT(!finished_, "executing a finished process");
  double remaining = cpu_time_s;
  while (remaining > 1e-15 && !finished_) {
    const PhaseSpec& p = app_.phases[phase_index_];
    double ips = p.ips(cluster, freq_ghz);
    const double t = now - remaining;  // approximate time within the tick
    if (t < penalty_until_) {
      ips *= (1.0 - penalty_);
    }
    // Zero or subnormal IPS (an unrunnable phase, or a full-stall migration
    // penalty) makes no progress: dividing by it below would produce NaN
    // counters or spin forever, so the rest of the tick is idle time.
    if (!(ips >= std::numeric_limits<double>::min())) break;
    const double phase_left = p.instructions - phase_insts_done_;
    const double insts_possible = ips * remaining;
    const double insts = std::min(phase_left, insts_possible);
    instructions_ += insts;
    l2d_accesses_ += insts * p.l2d_per_inst;
    phase_insts_done_ += insts;
    remaining -= insts / ips;
    if (phase_insts_done_ >= p.instructions - 1e-6) {
      phase_insts_done_ = 0.0;
      ++phase_index_;
      if (phase_index_ >= app_.phases.size()) {
        finished_ = true;
        finish_time_ = now - std::max(remaining, 0.0);
      }
    }
  }
  ips_tracker_.record(now, instructions_);
  l2d_tracker_.record(now, l2d_accesses_);
}

void Process::account_qos(double now, double dt, double grace_s,
                          double tolerance) {
  TOPIL_REQUIRE(dt >= 0.0, "negative interval");
  if (now - arrival_time_ <= grace_s) return;
  qos_observed_time_ += dt;
  if (measured_ips() < tolerance * qos_target_ips_) {
    qos_below_time_ += dt;
  }
}

double Process::qos_below_fraction(double now) const {
  (void)now;
  if (qos_observed_time_ <= 0.0) return 0.0;
  return qos_below_time_ / qos_observed_time_;
}

void Process::idle_tick(double now) {
  ips_tracker_.record(now, instructions_);
  l2d_tracker_.record(now, l2d_accesses_);
}

}  // namespace topil
