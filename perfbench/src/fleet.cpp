// Workload `fleet`: one evaluation campaign per unit through
// fleet::run_experiments — GTS/ondemand mixed-workload scenarios on the
// HiKey970 with the 12x12 package grid (156 thermal nodes). The fused
// lane tick and the batched thermal slab kernel dominate; there is no NPU,
// nn, server or persistence work. Batch 64 over 3 workers makes two
// chunks, so at most two workers are busy.

#include <deque>
#include <mutex>

#include "core/training.hpp"
#include "governors/powersave.hpp"
#include "harness.hpp"
#include "sim/fleet/batch_runner.hpp"
#include "workloads/generator.hpp"

namespace perfbench {
namespace {

using namespace topil;

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kScenarios = 128;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kPackageGrid = 12;
/// A 10 s horizon with arrivals spread past it: lanes run several apps at
/// once and nearly all of them run to the horizon.
constexpr double kHorizonSeconds = 10.0;
constexpr std::size_t kApps = 10;
constexpr double kArrivalsPerSecond = 0.9;
/// Lanes re-run through the scalar run_experiment as the output check.
constexpr std::size_t kCheckedLanes = 2;

/// Governor::tick time and calls of one traced unit, summed across lanes.
struct TickTally {
  std::mutex mutex;
  double seconds = 0.0;
  std::uint64_t ticks = 0;
};

/// Forwards every call to the wrapped governor and times `tick`. Sums are
/// kept per lane (one worker thread) and merged when the lane ends, so
/// the per-tick cost is two clock reads and no shared write.
class TimedGovernor final : public Governor {
 public:
  TimedGovernor(std::unique_ptr<Governor> inner, TickTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}
  ~TimedGovernor() override {
    std::lock_guard<std::mutex> lock(tally_->mutex);
    tally_->seconds += seconds_;
    tally_->ticks += ticks_;
  }
  TimedGovernor(const TimedGovernor&) = delete;
  TimedGovernor& operator=(const TimedGovernor&) = delete;

  std::string name() const override { return inner_->name(); }
  void reset(SystemSim& sim) override { inner_->reset(sim); }
  CoreId place(SystemSim& sim, const AppSpec& app,
               double qos_target_ips) override {
    return inner_->place(sim, app, qos_target_ips);
  }
  void tick(SystemSim& sim) override {
    const double t0 = wall_now_s();
    inner_->tick(sim);
    seconds_ += wall_now_s() - t0;
    ++ticks_;
  }
  void save_state(persist::StateWriter& out) const override {
    inner_->save_state(out);
  }
  void restore_state(persist::StateReader& in) override {
    inner_->restore_state(in);
  }

 private:
  std::unique_ptr<Governor> inner_;
  TickTally* tally_;
  double seconds_ = 0.0;
  std::uint64_t ticks_ = 0;
};

/// Name of the first ExperimentResult field in which `a` and `b` differ
/// (doubles compared bit for bit), or empty when they are equal.
std::string first_difference(const ExperimentResult& a,
                             const ExperimentResult& b) {
  if (a.governor != b.governor) return "governor";
  if (!same_bits(a.avg_temp_c, b.avg_temp_c)) return "avg_temp_c";
  if (!same_bits(a.peak_temp_c, b.peak_temp_c)) return "peak_temp_c";
  if (a.qos_violations != b.qos_violations) return "qos_violations";
  if (a.apps_completed != b.apps_completed) return "apps_completed";
  if (a.apps_total != b.apps_total) return "apps_total";
  if (!same_bits(a.duration_s, b.duration_s)) return "duration_s";
  if (!same_bits(a.avg_utilization, b.avg_utilization)) {
    return "avg_utilization";
  }
  if (!same_bits(a.peak_utilization, b.peak_utilization)) {
    return "peak_utilization";
  }
  if (a.throttle_events != b.throttle_events) return "throttle_events";
  if (a.overhead_s.size() != b.overhead_s.size()) return "overhead_s";
  for (const auto& [component, seconds] : a.overhead_s) {
    const auto it = b.overhead_s.find(component);
    if (it == b.overhead_s.end() || !same_bits(seconds, it->second)) {
      return "overhead_s";
    }
  }
  if (a.cpu_time_s.size() != b.cpu_time_s.size()) return "cpu_time_s";
  for (std::size_t c = 0; c < a.cpu_time_s.size(); ++c) {
    if (a.cpu_time_s[c].size() != b.cpu_time_s[c].size()) return "cpu_time_s";
    for (std::size_t l = 0; l < a.cpu_time_s[c].size(); ++l) {
      if (!same_bits(a.cpu_time_s[c][l], b.cpu_time_s[c][l])) {
        return "cpu_time_s";
      }
    }
  }
  if (a.completed.size() != b.completed.size()) return "completed";
  for (std::size_t i = 0; i < a.completed.size(); ++i) {
    const CompletedProcess& x = a.completed[i];
    const CompletedProcess& y = b.completed[i];
    if (x.pid != y.pid || x.app_name != y.app_name ||
        !same_bits(x.qos_target_ips, y.qos_target_ips) ||
        !same_bits(x.average_ips, y.average_ips) ||
        !same_bits(x.arrival_time, y.arrival_time) ||
        !same_bits(x.finish_time, y.finish_time) ||
        !same_bits(x.below_target_fraction, y.below_target_fraction) ||
        x.qos_violated != y.qos_violated) {
      return "completed";
    }
  }
  if ((a.validation == nullptr) != (b.validation == nullptr)) {
    return "validation";
  }
  return {};
}

class Fleet final : public BenchWorkload {
 public:
  explicit Fleet(std::uint64_t seed)
      : platform_(hikey970_platform()), lane_ticks_(kScenarios, 0) {
    const WorkloadGenerator generator(platform_);
    const auto pool = AppDatabase::instance().mixed_pool();
    WorkloadGenerator::MixedConfig mixed;
    mixed.num_apps = kApps;
    mixed.arrival_rate_per_s = kArrivalsPerSecond;
    for (std::size_t i = 0; i < kScenarios; ++i) {
      mixed.seed = derive_seed(seed, 2 * i);
      workloads_.push_back(generator.mixed(mixed, pool));
      fleet::FleetJob job;
      job.platform = &platform_;
      job.workload = &workloads_.back();
      job.config.max_duration_s = kHorizonSeconds;
      job.config.sim.seed = derive_seed(seed, 2 * i + 1);
      job.config.sim.integrator = ThermalIntegrator::Exponential;
      job.config.sim.floorplan.package_grid = kPackageGrid;
      job.make_governor = [](npu::InferenceAggregator*) {
        return make_gts_ondemand();
      };
      jobs_.push_back(job);

      // The traced copy counts lane ticks in the job observer and wraps
      // the governor to time its ticks.
      job.config.observer = [count = &lane_ticks_[i]](const SystemSim&) {
        ++*count;
      };
      job.make_governor = [tally = &tally_](npu::InferenceAggregator*) {
        return std::make_unique<TimedGovernor>(make_gts_ondemand(), tally);
      };
      traced_jobs_.push_back(std::move(job));
    }
    const std::size_t first = derive_seed(seed, 1u << 20) % kScenarios;
    checked_lanes_ = {
        first,
        (first + 1 + derive_seed(seed, 1u << 21) % (kScenarios - 1)) %
            kScenarios};
    warm_propagator(platform_, jobs_.front().config.cooling,
                    jobs_.front().config.sim);
  }

  std::size_t scenarios_per_unit() const override { return kScenarios; }
  std::size_t workers() const override { return kWorkers; }

  void run_unit(std::size_t, Tracer* trace, Layers& layers) override {
    fleet::FleetOptions options;
    options.batch = kBatch;
    options.jobs = kWorkers;
    if (trace == nullptr) {
      last_ = fleet::run_experiments(jobs_, options);
      return;
    }
    std::fill(lane_ticks_.begin(), lane_ticks_.end(), 0);
    tally_.seconds = 0.0;
    tally_.ticks = 0;
    const double cpu0 = process_cpu_s();
    {
      Tracer::Scope span(trace, "fleet.run_experiments");
      last_ = fleet::run_experiments(traced_jobs_, options);
    }
    const double cpu_s = process_cpu_s() - cpu0;

    double lane_ticks = 0.0;
    for (const std::uint64_t n : lane_ticks_) {
      lane_ticks += static_cast<double>(n);
    }
    layers["governors.tick_s"] = tally_.seconds;
    layers["governors.ticks"] = static_cast<double>(tally_.ticks);
    layers["sim.lane_ticks"] = lane_ticks;
    layers["sim.ns_per_lane_tick"] =
        1e9 * (cpu_s - tally_.seconds) / lane_ticks;
  }

  Outcome check() override {
    Outcome outcome = std::move(outcome_);
    outcome.attempted = units_ * kScenarios;
    for (const std::size_t lane : checked_lanes_) {
      const fleet::FleetJob& job = jobs_[lane];
      const std::unique_ptr<Governor> governor = job.make_governor(nullptr);
      const ExperimentResult scalar =
          run_experiment(*job.platform, *governor, *job.workload, job.config);
      const std::string field = first_difference(scalar, reference_[lane]);
      if (!field.empty()) {
        ++outcome.failed;
        outcome.problems.push_back("lane " + std::to_string(lane) +
                                   " differs from scalar run_experiment in " +
                                   field);
      }
    }
    return outcome;
  }

  /// Keep unit 0's results as the reference; every later unit must
  /// reproduce them exactly.
  void check_unit(std::size_t unit, Layers*) override {
    std::vector<ExperimentResult> results = std::move(last_);
    last_.clear();
    ++units_;
    if (results.size() != kScenarios) {
      outcome_.failed += kScenarios;
      outcome_.problems.push_back("unit " + std::to_string(unit) + " lost " +
                                  "scenarios");
      return;
    }
    if (reference_.empty()) {
      reference_ = std::move(results);
      return;
    }
    for (std::size_t i = 0; i < kScenarios; ++i) {
      const std::string field = first_difference(results[i], reference_[i]);
      if (!field.empty()) {
        ++outcome_.failed;
        outcome_.problems.push_back("unit " + std::to_string(unit) +
                                    " lane " + std::to_string(i) +
                                    " differs from unit 0 in " + field);
      }
    }
  }

 private:
  const PlatformSpec& platform_;
  std::deque<Workload> workloads_;
  std::vector<fleet::FleetJob> jobs_;
  std::vector<fleet::FleetJob> traced_jobs_;
  std::vector<std::uint64_t> lane_ticks_;
  TickTally tally_;
  std::vector<std::size_t> checked_lanes_;
  std::vector<ExperimentResult> last_;       ///< results of the last unit
  std::vector<ExperimentResult> reference_;  ///< results of unit 0
  std::size_t units_ = 0;
  Outcome outcome_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_fleet(std::uint64_t seed) {
  return std::make_unique<Fleet>(seed);
}

}  // namespace perfbench
