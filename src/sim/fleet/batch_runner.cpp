#include "sim/fleet/batch_runner.hpp"

#include <algorithm>

#include "common/parallel_for.hpp"
#include "sim/fleet/fleet_engine.hpp"

namespace topil::fleet {

std::vector<std::pair<std::size_t, std::size_t>> partition_jobs(
    std::size_t n, std::size_t batch, std::size_t workers) {
  TOPIL_REQUIRE(batch > 0, "fleet batch must be at least 1");
  const std::size_t count =
      std::max((n + batch - 1) / batch, std::min(n, workers));
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  chunks.reserve(count);
  // The first n % count chunks take one job more than the rest.
  std::size_t begin = 0;
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t size = n / count + (c < n % count ? 1 : 0);
    chunks.emplace_back(begin, begin + size);
    begin += size;
  }
  return chunks;
}

std::vector<ExperimentResult> run_experiments(
    const std::vector<FleetJob>& jobs, const FleetOptions& options) {
  TOPIL_REQUIRE(!jobs.empty(), "no fleet jobs");
  const std::size_t workers = resolve_jobs(options.jobs);
  const std::vector<std::pair<std::size_t, std::size_t>> chunks =
      partition_jobs(jobs.size(), options.batch, workers);

  std::vector<ExperimentResult> results(jobs.size());
  parallel_for_indexed(chunks.size(), workers, [&](std::size_t ci) {
    const auto [begin, end] = chunks[ci];

    // A lane is the job's governor plus the run that drives it; the run's
    // loop head is the engine's pre_tick hook.
    npu::InferenceAggregator aggregator;
    std::vector<std::unique_ptr<Governor>> governors;
    std::vector<std::unique_ptr<ExperimentRun>> runs;
    std::vector<FleetEngine::Lane> lanes;
    for (std::size_t j = begin; j < end; ++j) {
      const FleetJob& job = jobs[j];
      TOPIL_REQUIRE(job.platform != nullptr, "fleet job without a platform");
      TOPIL_REQUIRE(job.workload != nullptr, "fleet job without a workload");
      TOPIL_REQUIRE(static_cast<bool>(job.make_governor),
                    "fleet job without a governor factory");
      governors.push_back(job.make_governor(&aggregator));
      TOPIL_REQUIRE(governors.back() != nullptr,
                    "governor factory returned null");
      runs.push_back(std::make_unique<ExperimentRun>(
          *job.platform, *governors.back(), *job.workload, job.config));

      FleetEngine::Lane lane;
      lane.sim = &runs.back()->sim();
      lane.pre_tick = [run = runs.back().get()](SystemSim&) {
        return run->pre_tick();
      };
      if (job.config.observer) {
        lane.post_tick = [&job](SystemSim& sim) { job.config.observer(sim); };
      }
      lanes.push_back(std::move(lane));
    }

    FleetEngine engine(std::move(lanes));
    engine.set_tick_barrier([&aggregator] { aggregator.flush(); });
    engine.run();

    for (std::size_t j = begin; j < end; ++j) {
      results[j] = runs[j - begin]->result();
    }
  });
  return results;
}

}  // namespace topil::fleet
