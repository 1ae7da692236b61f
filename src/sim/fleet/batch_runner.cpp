#include "sim/fleet/batch_runner.hpp"

#include <algorithm>

#include "common/parallel_for.hpp"
#include "sim/fleet/fleet_engine.hpp"
#include "validate/invariant_checker.hpp"

namespace topil::fleet {

namespace {

/// Per-lane driver state: replays run_experiment's loop head through the
/// engine's pre_tick hook.
struct LaneDriver {
  const FleetJob* job = nullptr;
  SystemSim sim;
  std::unique_ptr<Governor> governor;
  std::unique_ptr<validate::InvariantChecker> checker;
  std::size_t next_arrival = 0;

  LaneDriver(const FleetJob& j, npu::InferenceAggregator* aggregator)
      : job(&j), sim(*j.platform, j.config.cooling, j.config.sim) {
    TOPIL_REQUIRE(j.platform != nullptr, "fleet job without a platform");
    TOPIL_REQUIRE(j.workload != nullptr && !j.workload->empty(),
                  "fleet job without a workload");
    TOPIL_REQUIRE(static_cast<bool>(j.make_governor),
                  "fleet job without a governor factory");
    TOPIL_REQUIRE(!(j.config.sim.validate && j.config.monitor != nullptr),
                  "sim.validate and a custom monitor are mutually exclusive");
    if (j.config.sim.validate) {
      checker =
          std::make_unique<validate::InvariantChecker>(j.config.validation);
      sim.attach_monitor(checker.get());
    } else if (j.config.monitor != nullptr) {
      sim.attach_monitor(j.config.monitor);
    }
    governor = j.make_governor(aggregator);
    TOPIL_REQUIRE(governor != nullptr, "governor factory returned null");
    governor->reset(sim);
  }

  /// One loop-head of run_experiment: duration limit, due arrivals,
  /// completion test, governor tick. False retires the lane.
  bool pre_tick() {
    if (sim.now() >= job->config.max_duration_s) return false;
    const auto& items = job->workload->items();
    while (next_arrival < items.size() &&
           items[next_arrival].arrival_time <= sim.now() + 1e-9) {
      const WorkloadItem& item = items[next_arrival];
      const AppSpec& app = Workload::app_of(item);
      const CoreId core = governor->place(sim, app, item.qos_target_ips);
      sim.spawn(app, item.qos_target_ips, core);
      ++next_arrival;
    }
    if (next_arrival == items.size() && sim.num_running() == 0) return false;
    governor->tick(sim);
    return true;
  }

  ExperimentResult finish() {
    ExperimentResult result =
        assemble_experiment_result(sim, *governor, job->workload->size());
    if (checker != nullptr) {
      result.validation =
          std::make_shared<validate::ValidationReport>(checker->report());
      sim.attach_monitor(nullptr);
    }
    return result;
  }
};

}  // namespace

std::vector<ExperimentResult> run_experiments(
    const std::vector<FleetJob>& jobs, const FleetOptions& options) {
  TOPIL_REQUIRE(!jobs.empty(), "no fleet jobs");
  TOPIL_REQUIRE(options.batch > 0, "fleet batch must be at least 1");
  const std::size_t batch = options.batch;

  // Consecutive partition: results stay in input order and a batch's lane
  // set is a pure function of (jobs, batch), independent of worker count.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  for (std::size_t begin = 0; begin < jobs.size(); begin += batch) {
    chunks.emplace_back(begin, std::min(jobs.size(), begin + batch));
  }

  std::vector<ExperimentResult> results(jobs.size());
  parallel_for_indexed(chunks.size(), options.jobs, [&](std::size_t ci) {
    const auto [begin, end] = chunks[ci];

    npu::InferenceAggregator aggregator;
    std::vector<std::unique_ptr<LaneDriver>> drivers;
    drivers.reserve(end - begin);
    for (std::size_t j = begin; j < end; ++j) {
      drivers.push_back(std::make_unique<LaneDriver>(jobs[j], &aggregator));
    }

    std::vector<FleetEngine::Lane> lanes;
    lanes.reserve(drivers.size());
    for (auto& driver : drivers) {
      FleetEngine::Lane lane;
      lane.sim = &driver->sim;
      lane.pre_tick = [drv = driver.get()](SystemSim&) {
        return drv->pre_tick();
      };
      if (driver->job->config.observer) {
        lane.post_tick = [drv = driver.get()](SystemSim& sim) {
          drv->job->config.observer(sim);
        };
      }
      lanes.push_back(std::move(lane));
    }

    FleetEngine engine(std::move(lanes));
    engine.set_tick_barrier([&aggregator] { aggregator.flush(); });
    engine.run();

    for (std::size_t j = begin; j < end; ++j) {
      results[j] = drivers[j - begin]->finish();
    }
  });
  return results;
}

}  // namespace topil::fleet
